// Command nasd is the crash-safe NAS job daemon: a long-running service
// that accepts architecture-search jobs over HTTP/JSON and survives being
// killed at any moment. Job state is durable — manifests and search
// checkpoints go through the same versioned+CRC envelope and atomic
// fsync+rename writes as nasrun checkpoints — so a SIGKILLed daemon
// restarted over the same -dir resumes every in-flight job from its last
// checkpoint and never re-runs a finished one (exactly-once results).
//
// Usage:
//
//	nasd -dir state/ [-listen 127.0.0.1:8765] [-grid small|default]
//	     [-maxrunning 1] [-maxqueued 8] [-deadline 0] [-retrybudget 1]
//	     [-connect host:port,...] [-workerbin nasrun] [-heartbeat 1s]
//	     [-maxrestarts 3] [-dialtimeout 5s] [-trace out.jsonl]
//	     [-addrfile path] [-slo-eval-p99 0] [-slo-queue-p99 0]
//	     [-slo-hb-rate 0] [-slo-interval 5s]
//
// API (JSON): POST /jobs, GET /jobs, GET /jobs/{id}, POST /jobs/{id}/cancel,
// GET /jobs/{id}/result, GET /jobs/{id}/trace, POST /drain, GET /healthz,
// plus an OpenMetrics exposition at /metrics (eval-latency histogram,
// kernel GFLOP counters, queue depth).
// When the admission queue is full or the daemon is draining, submits get
// 429 with jittered Retry-After backoff guidance.
//
// Every job carries a deterministic trace (root span id derived from the
// job id), so a job's admission, queue wait, dispatch, per-eval training,
// and remote-agent rpc spans stitch into one tree across processes; pull
// them from GET /jobs/{id}/trace and render with "nasreport spans". The
// -slo-* flags arm a watchdog that, on the first breach of an objective
// (eval p99, queue-wait p99, heartbeat-miss rate), captures one CPU+heap
// profile bundle under <dir>/slo-profiles and records a KindSLOBreach
// event; capture re-arms only after the objective recovers.
//
// Degradation ladder: with -connect, evaluations go to remote agents; slots
// whose agent stays dead fall back to local subprocess workers (-workerbin,
// the nasrun binary) and then to in-process evaluation — all inside the
// job's one worker pool, built and validated by the cli.Ladder nasrun
// shares; when an attempt fails and the retry budget is spent the job parks
// as "paused" with its checkpoint instead of losing work. A watchdog
// goroutine enforces per-job deadlines and retry budgets.
//
// SIGTERM (or POST /drain) drains gracefully: admission closes, running
// jobs are evicted and checkpoint, and the daemon exits 0; a later start
// resumes them.
//
// Exit codes: the shared nasrun codes, plus 6 when the state directory is
// already locked by another daemon instance (podnas.ErrUnavailable).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"podnas"
	"podnas/internal/cli"
	"podnas/internal/jobs"
	"podnas/internal/obs"
	"podnas/internal/obs/slo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nasd: ")
	if err := run(); err != nil {
		log.Print(err)
		os.Exit(cli.ExitCode(err))
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:8765", "serve the job API on this address")
	dir := flag.String("dir", "nasd-state", "durable state directory (manifests, checkpoints, traces)")
	grid := flag.String("grid", "small", "data set size: small or default")
	maxRunning := flag.Int("maxrunning", 1, "concurrently running jobs")
	maxQueued := flag.Int("maxqueued", 8, "admission queue bound; submits beyond it get 429")
	deadline := flag.Duration("deadline", 0, "default per-attempt deadline enforced by the watchdog (0 = none)")
	retryBudget := flag.Int("retrybudget", 1, "default re-admissions after an eviction or failed attempt")
	connect := flag.String("connect", "", "dispatch evaluations to remote worker agents at these comma-separated host:port addresses")
	workerBin := flag.String("workerbin", "", "nasrun binary for subprocess worker isolation (empty = in-process evaluation)")
	heartbeat := flag.Duration("heartbeat", time.Second, "worker heartbeat interval")
	maxRestarts := flag.Int("maxrestarts", 3, "per-worker respawn budget before a slot degrades")
	dialTimeout := flag.Duration("dialtimeout", 5*time.Second, "per-attempt timeout dialing a remote agent")
	readTimeout := flag.Duration("readtimeout", 0, "per-read deadline on agent connections (0 = heartbeats only)")
	drainTimeout := flag.Duration("draintimeout", time.Minute, "bound on graceful drain before exiting anyway")
	tracePath := flag.String("trace", "", "append the daemon-wide event log to this file as JSON lines")
	addrFile := flag.String("addrfile", "", "write the bound listen address to this file once serving (for scripts and tests)")
	sloEvalP99 := flag.Duration("slo-eval-p99", 0, "SLO: breach when eval latency p99 exceeds this (0 = off)")
	sloQueueP99 := flag.Duration("slo-queue-p99", 0, "SLO: breach when job queue-wait p99 exceeds this (0 = off)")
	sloHBRate := flag.Float64("slo-hb-rate", 0, "SLO: breach when heartbeat misses/minute exceed this (0 = off)")
	sloInterval := flag.Duration("slo-interval", 5*time.Second, "SLO watch-loop poll interval")
	flag.Parse()

	if *grid != "small" && *grid != "default" {
		return fmt.Errorf("-grid must be \"small\" or \"default\", got %q: %w", *grid, podnas.ErrBadOptions)
	}
	if *maxRunning < 1 || *maxQueued < 1 {
		return fmt.Errorf("-maxrunning and -maxqueued must be at least 1: %w", podnas.ErrBadOptions)
	}
	// The worker flags, and the remote → subprocess → in-process ladder they
	// describe, are shared with nasrun: cli.Ladder validates and builds both.
	ladder := cli.Ladder{
		Connect: *connect, WorkerBin: *workerBin, Grid: *grid,
		Heartbeat: *heartbeat, MaxRestarts: *maxRestarts,
		DialTimeout: *dialTimeout, ReadTimeout: *readTimeout,
	}
	if err := ladder.Validate(); err != nil {
		return err
	}

	// One daemon per state directory: two instances over the same manifests
	// would double-run jobs and corrupt each other's admission decisions.
	// flock is released by the kernel on process death, so a SIGKILLed
	// daemon never wedges its successor.
	unlock, err := lockDir(*dir)
	if err != nil {
		return err
	}
	defer unlock()

	cfg := podnas.SmallPipelineConfig()
	if *grid == "default" {
		cfg = podnas.DefaultPipelineConfig()
	}
	log.Printf("preparing pipeline (%s grid)...", *grid)
	t0 := time.Now()
	p, err := podnas.NewPipeline(cfg)
	if err != nil {
		return err
	}
	log.Printf("pipeline ready in %v", time.Since(t0).Round(time.Millisecond))

	met := obs.NewMetrics(*maxRunning)
	sinks := []obs.Recorder{met}
	var traceLog *obs.JSONL
	if *tracePath != "" {
		tl, _, err := obs.AppendJSONL(*tracePath)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		traceLog = tl
		defer traceLog.Close()
		sinks = append(sinks, traceLog)
	}
	rec := obs.NewMulti(sinks...)

	var sloWatch *slo.Watcher
	if *sloEvalP99 > 0 || *sloQueueP99 > 0 || *sloHBRate > 0 {
		w, err := slo.New(slo.Options{
			Targets: slo.Targets{
				EvalP99:           *sloEvalP99,
				QueueWaitP99:      *sloQueueP99,
				HeartbeatMissRate: *sloHBRate,
			},
			Dir:      filepath.Join(*dir, "slo-profiles"),
			Interval: *sloInterval,
			Snapshot: met.Snapshot,
			Recorder: rec,
		})
		if err != nil {
			return fmt.Errorf("slo: %w", err)
		}
		sloWatch = w
		defer sloWatch.Close()
		log.Printf("SLO watch: eval p99 %v, queue-wait p99 %v, hb-miss rate %.3g/min; breach profiles in %s",
			*sloEvalP99, *sloQueueP99, *sloHBRate, filepath.Join(*dir, "slo-profiles"))
	}

	store, err := jobs.NewStore(*dir)
	if err != nil {
		return err
	}
	// One rung: the pool already degrades remote → subprocess → in-process
	// internally, and an evaluation that cost CrashLimit workers must not be
	// re-run inside the daemon the isolation protects.
	rungs := []jobs.Runner{&searchRunner{p: p, ladder: ladder}}
	mgr, err := jobs.New(jobs.Options{
		Store:           store,
		Rungs:           rungs,
		MaxRunning:      *maxRunning,
		MaxQueued:       *maxQueued,
		DefaultDeadline: *deadline,
		RetryBudget:     *retryBudget,
		Recorder:        rec,
		Version:         podnas.Version,
		SpecCheck: func(s jobs.Spec) error {
			_, err := podnas.ParseMethod(s.Method)
			return err
		},
	})
	if err != nil {
		return err
	}
	for _, cerr := range mgr.CorruptManifests() {
		log.Printf("startup: %v", cerr)
	}
	if st := mgr.Stats(); st.Queued > 0 {
		log.Printf("re-admitted %d unfinished job(s) from %s", st.Queued, *dir)
	}

	// SIGTERM/SIGINT and POST /drain converge on the same graceful path:
	// stop admitting, checkpoint everything, exit 0.
	drainReq := make(chan struct{}, 1)
	api := &jobs.API{Manager: mgr, OnDrain: func() {
		select {
		case drainReq <- struct{}{}:
		default:
		}
	}}
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	mux.Handle("/metrics", obs.MetricsHandler(
		met.Families,
		obs.KernelFamilies,
		obs.GaugeSource("podnas_jobs_queued", "Jobs waiting in the admission queue.",
			func() float64 { return float64(mgr.Stats().Queued) }),
		obs.GaugeSource("podnas_jobs_running", "Jobs currently running.",
			func() float64 { return float64(mgr.Stats().Running) }),
	))

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("serving job API on http://%s (state in %s)", ln.Addr(), *dir)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			return fmt.Errorf("-addrfile: %w", err)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sigs:
		log.Printf("%v: draining (timeout %v)...", s, *drainTimeout)
	case <-drainReq:
		log.Printf("drain requested: draining (timeout %v)...", *drainTimeout)
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Drain(ctx); err != nil {
		log.Printf("drain: %v (exiting anyway; state is durable)", err)
	}
	if err := mgr.Close(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("close: %v", err)
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	_ = srv.Shutdown(shutCtx)
	if traceLog != nil {
		_ = traceLog.Flush()
	}
	log.Printf("drained: all jobs checkpointed, state in %s", *dir)
	return nil
}

// lockDir takes an exclusive flock on <dir>/nasd.lock, refusing to start
// when another live daemon owns the directory. The lock dies with the
// process, so crash-restart never blocks on a stale lock file.
func lockDir(dir string) (func(), error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "nasd.lock")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("state dir %s is locked by another nasd instance: %w", dir, podnas.ErrUnavailable)
	}
	fmt.Fprintf(f, "%d\n", os.Getpid())
	return func() {
		_ = syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}

// searchRunner is the daemon's one rung: podnas.Search over the shared
// pipeline, on the ladder's worker pool when -connect or -workerbin
// configure one.
type searchRunner struct {
	p      *podnas.Pipeline
	ladder cli.Ladder
}

func (r *searchRunner) Name() string {
	if r.ladder.Connect != "" {
		return "search-distributed"
	}
	if r.ladder.WorkerBin != "" {
		return "search-isolated"
	}
	return "search"
}

func (r *searchRunner) Run(ctx context.Context, spec jobs.Spec, run jobs.RunInfo) (*jobs.Result, error) {
	method, err := podnas.ParseMethod(spec.Method)
	if err != nil {
		return nil, err
	}
	workers := spec.Workers
	if workers < 1 {
		workers = 1
	}
	epochs := spec.Epochs
	if epochs < 1 {
		epochs = 20 // the paper's training budget
	}
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	opts := podnas.SearchOptions{
		Workers: workers, MaxEvals: spec.Evals, Epochs: epochs,
		Population: max(4, spec.Evals/3), Sample: max(2, spec.Evals/8),
		Seed: seed, Ctx: ctx,
		CheckpointPath: run.CheckpointPath, CheckpointEvery: 1,
		Resume:   run.Resume,
		Recorder: run.Recorder,
		// The job's root span context: the search subtree parents under the
		// same trace as the manager's admission/queue_wait spans.
		Trace: run.Trace,
	}
	if method == podnas.MethodRL {
		opts.Agents = 2
		opts.WorkersPerAgent = workers
		opts.Batches = max(1, spec.Evals/(opts.Agents*opts.WorkersPerAgent))
	}
	if r.ladder.Pooled() {
		fallback, err := r.p.NewEvaluator(epochs)
		if err != nil {
			return nil, err
		}
		// run.Trace is the job's root span context: pool dispatch/rpc/
		// handshake spans join the same trace as the search subtree.
		pool, err := r.ladder.NewPool(workers, epochs, seed, fallback, run.Recorder, run.Trace)
		if err != nil {
			return nil, err
		}
		defer pool.Close()
		opts.Evaluator = pool
	}
	res, err := podnas.Search(r.p, method, opts)
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil && len(res.Results) < spec.Evals {
		// A cancelled search returns its completed results with a nil error.
		// Here the cancellation came from the manager (drain, client cancel,
		// or watchdog eviction), so a partial run must not masquerade as a
		// finished job: surface the interruption and let the manager's settle
		// policy decide between requeue, paused, and cancelled. The
		// checkpoint already holds the partial progress.
		return nil, fmt.Errorf("search interrupted after %d/%d evaluations: %w",
			len(res.Results), spec.Evals, ctx.Err())
	}
	return &jobs.Result{
		BestArch:   res.Best.Arch.Key(),
		BestReward: res.Best.Reward,
		Evals:      len(res.Results),
	}, nil
}
