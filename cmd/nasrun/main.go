// Command nasrun runs a neural architecture search with real training
// evaluations on the POD-LSTM task — the laptop-scale analogue of the
// paper's Theta searches. Each proposed architecture is actually trained
// (paper hyperparameters: Adam 1e-3, batch 64, 20 epochs) and scored by
// validation R².
//
// Usage:
//
//	nasrun [-method ae|rs|rl] [-evals 24] [-workers 2] [-epochs 20]
//	       [-grid small|default] [-seed 1] [-posttrain]
//	       [-checkpoint ck.json] [-resume ck.json] [-evaltimeout 0] [-retries 0]
//	       [-isolate] [-heartbeat 1s] [-maxrestarts 3] [-speculate 0]
//	       [-connect host:port,...] [-dialtimeout 5s] [-readtimeout 0]
//	       [-obs :6060] [-trace out.jsonl]
//	       [-slo-eval-p99 0] [-slo-queue-p99 0] [-slo-hb-rate 0]
//	       [-slo-dir slo-profiles] [-slo-interval 5s]
//	nasrun -worker -listen host:port [-grid small|default] [-epochs 20]
//	       [-heartbeat 1s]
//
// A run with -checkpoint periodically persists the search state; a killed
// run (Ctrl-C, SIGTERM, power loss) restarts from where it left off with
// -resume, keeping the same evaluation budget.
//
// With -isolate each evaluation runs in a supervised worker subprocess
// (nasrun re-executed with -worker), so a crashing or OOM-killed training
// costs one process, not the search: the supervisor detects the death,
// restarts the worker, and re-dispatches the evaluation. See the README's
// "Isolated worker processes" section.
//
// With -connect the same supervision drives remote worker agents over TCP
// (started with -worker -listen on the other machines), with per-connection
// leases, reconnect-with-resume, and degradation to local subprocess
// workers when agents stay unreachable. See the README's "Distributed
// workers" section.
//
// Observability: -trace streams every search event (evaluation lifecycle,
// epoch ticks, trace spans, worker supervision, checkpoints) as JSON lines;
// -obs serves live aggregate metrics as an OpenMetrics exposition at
// /metrics, next to the pprof suite.
// The -slo-* flags start a watch loop that, on the first poll a target is
// breached, captures a CPU+heap pprof bundle into -slo-dir (once per breach
// window) and records an slo_breach event. See the README's "Observability"
// and "Metrics & tracing" sections.
//
// Exit codes: 0 success, 1 runtime failure, 2 usage error (bad flags,
// unknown method, invalid options), 3 unreadable or corrupted checkpoint,
// 4 interrupted before any evaluation succeeded, 5 evaluation budget
// exhausted without a success.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"podnas"
	"podnas/internal/cli"
	"podnas/internal/obs"
	"podnas/internal/obs/slo"
	"podnas/internal/obs/span"
	"podnas/internal/search"
	"podnas/internal/worker"
)

// obsCleanup flushes the -trace sink before any exit path; log.Fatal-style
// exits skip defers, so fatal routes through it explicitly.
var obsCleanup = func() {}

// fatal reports err and exits with its mapped code, flushing the trace sink
// first so the event log survives the failure it explains.
func fatal(err error) {
	obsCleanup()
	log.Print(err)
	os.Exit(cli.ExitCode(err))
}

// fatalUsage reports a flag/usage error and exits with the usage code.
func fatalUsage(format string, args ...any) {
	obsCleanup()
	log.Printf(format, args...)
	os.Exit(cli.ExitUsage)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nasrun: ")
	method := flag.String("method", "ae", "search method: ae, rs, or rl")
	evals := flag.Int("evals", 24, "number of architecture evaluations")
	workers := flag.Int("workers", 2, "concurrent evaluations")
	epochs := flag.Int("epochs", 20, "training epochs per evaluation (paper: 20)")
	grid := flag.String("grid", "small", "data set size: small or default")
	seed := flag.Uint64("seed", 1, "search seed")
	posttrain := flag.Bool("posttrain", false, "retrain the best architecture with the posttraining budget and report science metrics")
	archKey := flag.String("arch", "", "skip the search: posttrain this saved architecture key (e.g. \"4-4-0-3-1-1-0-1-1-0-3-0-0-1\")")
	save := flag.String("save", "", "write the search history as JSON to this path")
	saveModel := flag.String("savemodel", "", "after posttraining, write the trained model (spec + weights) to this path")
	checkpoint := flag.String("checkpoint", "", "periodically persist search state to this path (atomic writes)")
	resume := flag.String("resume", "", "resume a search from this checkpoint (method and seed must match the original run)")
	evalTimeout := flag.Duration("evaltimeout", 0, "per-evaluation timeout (0 = none); timed-out trainings are recorded as errors")
	retries := flag.Int("retries", 0, "retry budget per evaluation for transient failures")
	isolate := flag.Bool("isolate", false, "evaluate in supervised worker subprocesses: crashes cost one process, not the search")
	connect := flag.String("connect", "", "dispatch evaluations to remote worker agents at these comma-separated host:port addresses (slots round-robin over them)")
	dialTimeout := flag.Duration("dialtimeout", 5*time.Second, "per-attempt timeout dialing a remote agent (with -connect)")
	readTimeout := flag.Duration("readtimeout", 0, "per-read deadline on agent connections, 0 = heartbeats only; must exceed 3x -heartbeat when set")
	workerMode := flag.Bool("worker", false, "serve evaluations over stdin/stdout as a pool worker (spawned by -isolate; not for direct use)")
	listen := flag.String("listen", "", "with -worker: serve evaluations as a TCP agent on this address instead of stdin/stdout")
	heartbeat := flag.Duration("heartbeat", time.Second, "worker heartbeat interval; a worker silent for 3 intervals is declared dead")
	maxRestarts := flag.Int("maxrestarts", 3, "per-worker respawn budget before the pool degrades to in-process evaluation")
	speculate := flag.Duration("speculate", 0, "re-dispatch an evaluation still unanswered after this long to a second worker (0 = off)")
	killNth := flag.Int("killnth", 0, "fault injection: SIGKILL a worker right after the Nth dispatched evaluation (tests/CI smoke)")
	faultKill := flag.Float64("faultkill", 0, "fault injection: probability a worker kills its own process mid-evaluation (needs -isolate)")
	faultSeed := flag.Uint64("faultseed", 0, "fault injection seed (set by the supervisor per worker incarnation)")
	obsAddr := flag.String("obs", "", "serve live metrics (OpenMetrics /metrics) and pprof on this address, e.g. :6060")
	tracePath := flag.String("trace", "", "stream the search event log to this file as JSON lines")
	sloEvalP99 := flag.Duration("slo-eval-p99", 0, "SLO: breach when eval latency p99 exceeds this (0 = off; needs -obs or -trace)")
	sloQueueP99 := flag.Duration("slo-queue-p99", 0, "SLO: breach when queue-wait p99 exceeds this (0 = off)")
	sloHBRate := flag.Float64("slo-hb-rate", 0, "SLO: breach when heartbeat misses/minute exceed this (0 = off)")
	sloDir := flag.String("slo-dir", "slo-profiles", "directory for SLO-breach pprof bundles")
	sloInterval := flag.Duration("slo-interval", 5*time.Second, "SLO watch-loop poll interval")
	flag.Parse()

	// Fail fast on invalid flags with a one-line error before any expensive
	// pipeline work, so typos do not waste minutes of data preparation.
	searchMethod, merr := podnas.ParseMethod(*method)
	if merr != nil {
		fatal(merr)
	}
	if *workers < 1 {
		fatalUsage("-workers must be at least 1, got %d", *workers)
	}
	if *retries < 0 {
		fatalUsage("-retries must be non-negative, got %d", *retries)
	}
	if *evals < 1 {
		fatalUsage("-evals must be at least 1, got %d", *evals)
	}
	if *grid != "small" && *grid != "default" {
		fatalUsage("-grid must be \"small\" or \"default\", got %q", *grid)
	}
	if *resume != "" {
		if _, err := os.Stat(*resume); err != nil {
			fatalUsage("-resume: %v", err)
		}
	}
	// Mode exclusions. A worker serves evaluations, so search/driver flags on
	// its command line are a mangled invocation, not a preference — fail fast
	// instead of silently ignoring them. flag.Visit sees only flags the user
	// actually set, so defaults never trip these checks.
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *listen != "" && !*workerMode {
		fatalUsage("-listen starts a worker agent and requires -worker")
	}
	if *workerMode {
		for _, name := range []string{
			"method", "evals", "workers", "seed", "posttrain", "arch", "save",
			"savemodel", "checkpoint", "resume", "evaltimeout", "retries",
			"isolate", "maxrestarts", "speculate", "killnth", "obs", "trace",
			"connect", "dialtimeout", "readtimeout",
			"slo-eval-p99", "slo-queue-p99", "slo-hb-rate", "slo-dir", "slo-interval",
		} {
			if set[name] {
				fatalUsage("-worker serves evaluations: -%s is a driver flag and has no effect here", name)
			}
		}
	}
	if *connect != "" {
		if *isolate {
			fatalUsage("-connect and -isolate are mutually exclusive: remote agents are already isolated, and local subprocess workers are the automatic fallback")
		}
		if set["faultkill"] {
			fatalUsage("-faultkill needs -isolate; to inject faults on remote workers, pass -faultkill to the agent's own command line")
		}
	}
	// The worker flags, and the remote → subprocess → in-process ladder they
	// describe, are shared with nasd: cli.Ladder validates and builds both.
	ladder := cli.Ladder{
		Connect: *connect, Grid: *grid,
		Heartbeat: *heartbeat, MaxRestarts: *maxRestarts,
		DialTimeout: *dialTimeout, ReadTimeout: *readTimeout,
		Speculate: *speculate, KillNth: *killNth,
		FaultKill: *faultKill, FaultSeed: *faultSeed,
	}
	if err := ladder.Validate(); err != nil {
		fatal(err)
	}

	cfg := podnas.SmallPipelineConfig()
	if *grid == "default" {
		cfg = podnas.DefaultPipelineConfig()
	}

	if *workerMode {
		ev := workerEvaluator(cfg, *epochs, *faultKill, *faultSeed)
		if *listen != "" {
			runAgentMode(ev, *epochs, *heartbeat, *listen)
			return
		}
		// Worker processes own stdout as the protocol channel; everything
		// human-readable goes to stderr (the supervisor passes it through).
		runWorkerMode(ev, *heartbeat)
		return
	}

	fmt.Printf("preparing pipeline (%s grid)...\n", *grid)
	t0 := time.Now()
	p, err := podnas.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pipeline ready in %v: %d train / %d val / %d test windows, %.1f%% energy in %d modes\n",
		time.Since(t0).Round(time.Millisecond), p.TrainWin.Examples(), p.ValWin.Examples(),
		p.TestWin.Examples(), 100*p.EnergyCaptured(), p.Cfg.Nr)

	if *archKey != "" {
		space := p.DefaultSpace()
		a, err := space.ParseArch(*archKey)
		if err != nil {
			log.Fatal(err)
		}
		m, err := p.BuildArch(space, a, *seed)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rebuilding saved architecture:\n%s", space.Describe(a))
		fmt.Println("posttraining (100 epochs)...")
		if _, err := m.Posttrain(100, *seed); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("val R2 %.4f  train R2 %.4f  test R2 %.4f  (%d parameters)\n",
			m.ValR2(), m.TrainR2(), m.TestR2(), m.ParamCount())
		saveTrained(m, *saveModel)
		return
	}

	// SIGINT/SIGTERM cancel the search context: in-flight trainings stop at
	// the next epoch boundary, completed results are kept, and a final
	// checkpoint is written so the run can be resumed.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// Observability: aggregate metrics live (and serve them with -obs),
	// stream the raw event log with -trace. With neither flag the recorder
	// stays nil and the search constructs no events at all.
	var (
		rec      obs.Recorder
		met      *obs.Metrics
		traceLog *obs.JSONL
		rootSpan span.Context
		sloWatch *slo.Watcher
	)
	if *obsAddr != "" || *tracePath != "" {
		met = obs.NewMetrics(*workers)
		sinks := []obs.Recorder{met}
		if *tracePath != "" {
			tl, err := obs.CreateJSONL(*tracePath)
			if err != nil {
				fatalUsage("-trace: %v", err)
			}
			traceLog = tl
			sinks = append(sinks, traceLog)
			obsCleanup = func() { _ = traceLog.Close() }
		}
		rec = obs.NewMulti(sinks...)
		// The header is the first record in the trace: replay tools learn the
		// method, seed, slot count, and writer versions without scanning.
		rec.Record(obs.NewHeader(*method, *seed, *workers, podnas.Version))
		// Root span context: deterministic from (method, seed), so a re-run
		// of the same search reconstructs identical span identities.
		rootSpan = span.NewTrace(fmt.Sprintf("run/%s/%d", *method, *seed))
		if *obsAddr != "" {
			srv, ln, err := obs.Serve(*obsAddr, met.Families, obs.KernelFamilies)
			if err != nil {
				fatalUsage("-obs: %v", err)
			}
			defer srv.Close()
			fmt.Printf("observability: http://%s/metrics (OpenMetrics) and /debug/pprof/\n", ln.Addr())
		}
		if *sloEvalP99 > 0 || *sloQueueP99 > 0 || *sloHBRate > 0 {
			w, err := slo.New(slo.Options{
				Targets: slo.Targets{
					EvalP99:           *sloEvalP99,
					QueueWaitP99:      *sloQueueP99,
					HeartbeatMissRate: *sloHBRate,
				},
				Dir:      *sloDir,
				Interval: *sloInterval,
				Snapshot: met.Snapshot,
				Recorder: rec,
			})
			if err != nil {
				fatalUsage("slo: %v", err)
			}
			sloWatch = w
			defer sloWatch.Close() // idempotent; the normal path closes before the trace sink
			fmt.Printf("SLO watch: eval p99 %v, queue-wait p99 %v, hb-miss rate %.3g/min; breach profiles → %s\n",
				*sloEvalP99, *sloQueueP99, *sloHBRate, *sloDir)
		}
	}

	opts := podnas.SearchOptions{
		Workers: *workers, MaxEvals: *evals, Epochs: *epochs,
		Population: max(4, *evals/3), Sample: max(2, *evals/8), Seed: *seed,
		Ctx: ctx, EvalTimeout: *evalTimeout, Retries: *retries,
		CheckpointPath: *checkpoint, Recorder: rec, Trace: rootSpan,
	}
	var pool *worker.Pool
	if *isolate || *connect != "" {
		// Local subprocess workers are nasrun itself in -worker mode: the
		// primary rung with -isolate, the fallback rung under -connect.
		ladder.WorkerBin, err = os.Executable()
		if err != nil {
			log.Fatalf("-isolate: cannot locate own binary: %v", err)
		}
		// In-process fallback: if workers cannot be spawned at all or every
		// slot exhausts its restart budget, the search continues un-isolated
		// rather than dying.
		fallback, err := p.NewEvaluator(*epochs)
		if err != nil {
			log.Fatal(err)
		}
		if *connect != "" {
			addrs := cli.SplitAddrs(*connect)
			fmt.Printf("distributed evaluation: %d slots over %d agent(s) %v, heartbeat %v, restart budget %d\n",
				*workers, len(addrs), addrs, *heartbeat, *maxRestarts)
		} else {
			fmt.Printf("isolated evaluation: %d worker processes, heartbeat %v, restart budget %d\n",
				*workers, *heartbeat, *maxRestarts)
		}
		pool, err = ladder.NewPool(*workers, *epochs, *seed, fallback, rec, rootSpan)
		if err != nil {
			log.Fatal(err)
		}
		defer pool.Close()
		opts.Evaluator = pool
	}
	if *resume != "" {
		ck, err := podnas.LoadCheckpoint(*resume)
		if err != nil {
			fatal(err)
		}
		opts.Resume = ck
		fmt.Printf("resuming from %s: %d of %d evaluations already done\n", *resume, ck.NumResults(), *evals)
	}
	if searchMethod == podnas.MethodRL {
		// Shape the RL run from the flag budget: 2 agents, -workers
		// evaluations per agent batch, and enough rounds to spend -evals.
		opts.Agents = 2
		opts.WorkersPerAgent = max(1, *workers)
		opts.Batches = max(1, *evals/(opts.Agents*opts.WorkersPerAgent))
	}
	fmt.Printf("running %s search: %d evaluations, %d workers, %d epochs each\n", *method, *evals, *workers, *epochs)
	t0 = time.Now()
	res, err := podnas.Search(p, searchMethod, opts)
	if err != nil {
		if ctx.Err() != nil && *checkpoint != "" {
			err = fmt.Errorf("%w\ninterrupted — resume with: nasrun -method %s -evals %d -seed %d -resume %s",
				err, *method, *evals, *seed, *checkpoint)
		}
		fatal(err)
	}
	elapsed := time.Since(t0)
	interrupted := ctx.Err() != nil

	rewards := make([]float64, 0, len(res.Results))
	for _, r := range res.Results {
		if r.Err == nil {
			rewards = append(rewards, r.Reward)
		}
	}
	sort.Float64s(rewards)
	fmt.Printf("\nsearch finished in %v (%.1fs/eval)\n", elapsed.Round(time.Second), elapsed.Seconds()/float64(len(res.Results)))
	if n := len(rewards); n > 0 {
		fmt.Printf("reward distribution: min %.4f  median %.4f  max %.4f\n", rewards[0], rewards[n/2], rewards[n-1])
	}
	if pool != nil {
		printPoolStats(pool.Stats())
	}
	if met != nil {
		s := met.Snapshot()
		fmt.Printf("live metrics: %d evaluations (%d errors, %d retries), reward MA %.4f, best %.4f, utilization %.1f%%\n",
			s.Evals, s.Errors, s.Retries, s.RewardMA, s.BestReward, 100*s.UtilizationAUC)
	}
	if sloWatch != nil {
		// Stop the watch-loop before the trace sink closes: a breach capture
		// in flight (the CPU profile window can outlive a short run) must
		// land its KindSLOBreach event in the trace, not on a closed file.
		sloWatch.Close()
	}
	if traceLog != nil {
		obsCleanup = func() {}
		if err := traceLog.Close(); err != nil {
			log.Printf("trace: %v", err)
		} else {
			fmt.Printf("event trace written to %s\n", *tracePath)
		}
	}
	fmt.Printf("\nbest architecture (validation R2 = %.4f):\n%s", res.Best.Reward, res.BestDesc)
	fmt.Printf("architecture key (reusable via -arch): %s\n", res.Best.Arch.Key())
	if *save != "" {
		if err := res.SaveJSON(*save); err != nil {
			fatal(err)
		}
		fmt.Printf("search history written to %s\n", *save)
	}
	if interrupted {
		if *checkpoint != "" {
			fmt.Printf("\ninterrupted after %d evaluations — resume with: nasrun -method %s -evals %d -seed %d -resume %s\n",
				len(res.Results), *method, *evals, *seed, *checkpoint)
		} else {
			fmt.Printf("\ninterrupted after %d evaluations (no -checkpoint set, run cannot be resumed)\n", len(res.Results))
		}
		return
	}

	if *posttrain {
		fmt.Printf("\nposttraining the best architecture (100 epochs)...\n")
		m, err := p.BuildArch(res.Space, res.Best.Arch, *seed)
		if err != nil {
			fatal(err)
		}
		if _, err := m.Posttrain(100, *seed); err != nil {
			fatal(err)
		}
		fmt.Printf("posttrained: val R2 %.4f  train R2 %.4f  test R2 %.4f  (%d parameters)\n",
			m.ValR2(), m.TrainR2(), m.TestR2(), m.ParamCount())
		saveTrained(m, *saveModel)
	}
}

// workerEvaluator builds what both worker modes serve: the same pipeline and
// evaluator as the driver, wrapped — when killRate is set — in self-kill
// fault injection, so the process SIGKILLs itself mid-evaluation at that
// rate and the supervisor's crash-restart (or reconnect) path is exercised
// by a real process death.
func workerEvaluator(cfg podnas.PipelineConfig, epochs int, killRate float64, killSeed uint64) search.Evaluator {
	p, err := podnas.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := p.NewEvaluator(epochs)
	if err != nil {
		log.Fatal(err)
	}
	if killRate > 0 {
		return &search.FaultInjector{Inner: ev, Seed: killSeed, KillRate: killRate}
	}
	return ev
}

// runAgentMode is the serving half of -connect: accept driver connections on
// addr and serve each under its handshaken lease until SIGINT/SIGTERM. A
// driver disconnect ends one connection, never the agent, which is what lets
// a partitioned driver reconnect and resume.
func runAgentMode(ev search.Evaluator, epochs int, heartbeat time.Duration, addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatalUsage("-listen: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	log.Printf("agent listening on %s (evaluations: %d epochs, heartbeat %v)", ln.Addr(), epochs, heartbeat)
	if err := worker.ServeListener(ctx, ln, ev, worker.AgentOptions{Heartbeat: heartbeat}); err != nil {
		log.Fatal(err)
	}
}

// runWorkerMode is the worker half of -isolate: serve evaluations over
// stdin/stdout until a shutdown frame arrives or the supervisor dies (stdin
// EOF). Stdout carries protocol frames only; the log package already writes
// to stderr, which the supervisor passes through.
func runWorkerMode(ev search.Evaluator, heartbeat time.Duration) {
	if err := worker.Serve(os.Stdin, os.Stdout, ev, worker.ServeOptions{Heartbeat: heartbeat}); err != nil {
		log.Fatal(err)
	}
}

// printPoolStats summarizes supervision events after an isolated run.
func printPoolStats(st worker.PoolStats) {
	fmt.Printf("worker pool: %d spawned, %d restarted, %d crashes, %d heartbeat timeouts, %d re-dispatches\n",
		st.Spawns, st.Restarts, st.Crashes, st.HeartbeatTimeouts, st.Redispatches)
	if st.SpeculativeRuns > 0 {
		fmt.Printf("speculative re-execution: %d launched, %d won\n", st.SpeculativeRuns, st.SpeculativeWins)
	}
	if st.Connects > 0 || st.Disconnects > 0 {
		fmt.Printf("remote agents: %d connects, %d disconnects, %d lease expiries, %d fenced stale frames\n",
			st.Connects, st.Disconnects, st.LeaseExpires, st.StaleLeaseFrames)
	}
	if st.LocalFallbacks > 0 {
		fmt.Printf("transport degradation: %d slot(s) fell back to local subprocess workers\n", st.LocalFallbacks)
	}
	if st.Degraded {
		fmt.Printf("pool degraded: %d evaluations served in-process\n", st.FallbackEvals)
	}
}

// saveTrained persists a posttrained model when -savemodel is set.
func saveTrained(m *podnas.Model, path string) {
	if path == "" {
		return
	}
	if err := m.SaveJSON(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained model written to %s\n", path)
}
