package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"podnas/internal/arch"
	"podnas/internal/fsatomic"
	"podnas/internal/jobs"
	"podnas/internal/obs"
	obsspan "podnas/internal/obs/span"
	"podnas/internal/search"
	"podnas/internal/tensor"
	"podnas/internal/worker"
)

// jobEvals is the evaluation budget of one job.
const jobEvals = 32

// stubEvaluator scores an architecture by a hash of its key and does no
// other work, so that everything a job costs is the daemon path's own.
type stubEvaluator struct{}

func stubReward(a arch.Arch) float64 {
	h := fnv.New64a()
	h.Write([]byte(a.Key()))
	return float64(h.Sum64()>>11) / (1 << 53)
}

func (stubEvaluator) Evaluate(a arch.Arch, _ uint64) (float64, error) { return stubReward(a), nil }

// expectedBest is what a job with this seed must report: the stub's maximum
// over the proposals a random search with that seed makes.
func expectedBest(space arch.Space, seed uint64) (search.Result, error) {
	rs, err := search.NewRandomSearch(space, seed)
	if err != nil {
		return search.Result{}, err
	}
	var props []search.Result
	for i := 0; i < jobEvals; i++ {
		a := rs.Propose()
		props = append(props, search.Result{Index: i, Arch: a, Reward: stubReward(a)})
	}
	best, _ := search.Best(props)
	return best, nil
}

// jobSeed derives job k's search seed from the run's seed (never zero: a
// zero seed is "unset" in a job spec).
func jobSeed(seed uint64, k int) uint64 {
	return tensor.NewRNG(seed).Split(uint64(k)).Uint64() | 1
}

// jobTimes are the instants of one job's life, taken where each happens:
// the submitting goroutine and the event sink fill the outer fields, the
// runner hands over run whole.
type jobTimes struct {
	id                     string
	submitStart, submitEnd time.Time
	connect                time.Time // worker_connect event
	finish                 time.Time // job_finish event
	run                    runTimes
}

// runTimes is what Runner.Run saw of one job.
type runTimes struct {
	start, end             time.Time
	openStart              time.Time
	searchStart, searchEnd time.Time
	closeStart, closeEnd   time.Time
	rpcs                   []evalCall
	checkpointBytes        int64
	redispatches, crashes  int
	err                    error
}

// nasdSection is the job daemon's path with nothing to compute: one
// jobs.Manager whose runner does what cmd/nasd's searchRunner does with
// -connect set — a fresh worker.Pool per job, dialled to a loopback agent,
// under a checkpointing random search — against the stub evaluator.
type nasdSection struct {
	dir   string
	store *jobs.Store
	mgr   *jobs.Manager
	addr  string
	space arch.Space

	stopAgent context.CancelFunc
	agentDone chan error

	specs  []jobs.Spec
	want   []search.Result // expected best per job of the burst
	bySeed map[uint64]int

	mu     sync.Mutex
	cur    mode
	times  []jobTimes
	byID   map[string]int
	finish chan jobFinish // in the order the job_finish events arrive
	events atomic.Uint64
}

// jobFinish is a job_finish event's job and arrival time.
type jobFinish struct {
	id string
	at time.Time
}

// newStateDir makes a fresh state directory: on tmpfs when /dev/shm is
// writable, else under tmp/ of the working directory. The disk of a shared
// sandbox is not the hardware users run on and its fsync latency does not
// repeat (README, "State directory"); the count of fsyncs carries that cost.
func newStateDir() (string, error) {
	name := fmt.Sprintf("podnas-bench-%d-", os.Getpid())
	dir, err := os.MkdirTemp("/dev/shm", name)
	if err != nil {
		if err = os.MkdirAll("tmp", 0o755); err == nil {
			dir, err = os.MkdirTemp("tmp", name)
		}
	}
	if err == nil {
		stateNote.Do(func() {
			var st syscall.Statfs_t
			_ = syscall.Statfs(dir, &st) // a failed statfs prints type 0
			note("state_fs %s (fstype %#x)", filepath.Dir(dir), st.Type)
		})
	}
	return dir, err
}

// stateNote prints where the state directories go once per process.
var stateNote sync.Once

// newNasdSection starts the agent and the manager over a fresh state
// directory and runs the warm-up bursts.
func newNasdSection(seed uint64, burst, warmups int) (*nasdSection, error) {
	dir, err := newStateDir()
	if err != nil {
		return nil, err
	}
	s := &nasdSection{
		dir: dir, space: arch.Default(),
		bySeed: map[uint64]int{}, byID: map[string]int{},
		// One slot per job of a burst: Record never blocks the manager.
		finish: make(chan jobFinish, burst),
	}
	if err := s.start(seed, burst, warmups); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *nasdSection) start(seed uint64, burst, warmups int) error {
	var err error
	if s.store, err = jobs.NewStore(s.dir); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	s.agentDone = make(chan error, 1)
	s.stopAgent = cancel
	go func() {
		s.agentDone <- worker.ServeListener(ctx, ln, stubEvaluator{}, worker.AgentOptions{Ident: "bench-agent"})
	}()

	for k := 0; k < burst; k++ {
		js := jobSeed(seed, k)
		s.specs = append(s.specs, jobs.Spec{Method: "rs", Evals: jobEvals, Workers: 1, Seed: js, Retries: -1})
		s.bySeed[js] = k
		best, err := expectedBest(s.space, js)
		if err != nil {
			return err
		}
		s.want = append(s.want, best)
	}
	s.mgr, err = jobs.New(jobs.Options{
		Store: s.store, Rungs: []jobs.Runner{s}, MaxRunning: 1, MaxQueued: 64,
		Recorder: s, Version: "bench",
	})
	if err != nil {
		return err
	}
	for i := 0; i < warmups; i++ {
		d, err := s.rep(mode{obs: true})
		if err != nil {
			return fmt.Errorf("warm-up burst: %w", err)
		}
		for _, op := range d.ops {
			if op.err != nil {
				return fmt.Errorf("warm-up burst: %w", op.err)
			}
		}
		if err := s.tidy(); err != nil {
			return fmt.Errorf("warm-up burst: %w", err)
		}
	}
	return nil
}

func (s *nasdSection) numOps() int      { return len(s.specs) }
func (s *nasdSection) slots() int       { return 1 }
func (s *nasdSection) obsModes() []bool { return []bool{true, false} }

// Record is the daemon-wide sink: it counts events and passes on job
// finishes, which is how a rep waits for its jobs.
func (s *nasdSection) Record(e obs.Event) {
	s.events.Add(1)
	if e.Kind == obs.KindWorkerConnect {
		now := time.Now()
		s.mu.Lock()
		if k, ok := s.byID[e.Job]; ok {
			s.times[k].connect = now
		}
		s.mu.Unlock()
	}
	if e.Kind == obs.KindJobFinish {
		s.finish <- jobFinish{e.Job, time.Now()}
	}
}

func (s *nasdSection) Name() string { return "bench-pool" }

// Run is the manager's only rung.
func (s *nasdSection) Run(ctx context.Context, spec jobs.Spec, run jobs.RunInfo) (*jobs.Result, error) {
	runStart := time.Now()
	s.mu.Lock()
	k, m := s.bySeed[spec.Seed], s.cur
	s.byID[run.JobID] = k
	s.mu.Unlock()

	rec, trace := run.Recorder, run.Trace
	if !m.obs {
		rec, trace = nil, obsspan.Context{}
	}
	rt := runTimes{start: runStart, openStart: time.Now()}
	res, err := func() (*jobs.Result, error) {
		pool, err := worker.NewPool(worker.PoolOptions{
			Workers:   1,
			Transport: &worker.DialTransport{Addrs: []string{s.addr}, Seed: spec.Seed},
			Seed:      spec.Seed, Recorder: rec, Trace: trace,
		})
		if err != nil {
			return nil, err
		}
		searcher, err := search.NewRandomSearch(s.space, spec.Seed)
		if err != nil {
			pool.Close()
			return nil, err
		}
		te := &timedEvaluator{inner: pool, base: spec.Seed}
		rt.searchStart = time.Now()
		results, err := search.RunAsyncCtx(ctx, searcher, te, search.RunAsyncOptions{
			Workers: 1, MaxEvals: spec.Evals, Seed: spec.Seed,
			Checkpoint: &search.Checkpointer{Path: run.CheckpointPath, Every: 1},
			Resume:     run.Resume, Recorder: rec, Trace: trace,
		})
		rt.searchEnd = time.Now()
		rt.rpcs = te.calls
		st := pool.Stats()
		rt.redispatches, rt.crashes = st.Redispatches, st.Crashes
		rt.closeStart = time.Now()
		pool.Close()
		rt.closeEnd = time.Now()
		if err != nil {
			return nil, err
		}
		if fi, err := os.Stat(run.CheckpointPath); err == nil {
			rt.checkpointBytes = fi.Size()
		}
		best, ok := search.Best(results)
		if !ok {
			return nil, fmt.Errorf("job %s: no successful evaluation", run.JobID)
		}
		return &jobs.Result{BestArch: best.Arch.Key(), BestReward: best.Reward, Evals: len(results)}, nil
	}()
	rt.end, rt.err = time.Now(), err

	s.mu.Lock()
	s.times[k].run = rt
	s.mu.Unlock()
	return res, err
}

// rep submits the burst and waits for every job's finish event.
func (s *nasdSection) rep(m mode) (repData, error) {
	n := len(s.specs)
	s.mu.Lock()
	s.cur, s.times = m, make([]jobTimes, n)
	s.mu.Unlock()
	ev0 := s.events.Load()
	repStart := time.Now()
	for k, spec := range s.specs {
		t0 := time.Now()
		job, err := s.mgr.Submit(spec)
		t1 := time.Now()
		if err != nil {
			return repData{}, fmt.Errorf("submit job %d: %w", k, err)
		}
		s.mu.Lock()
		s.times[k].id, s.times[k].submitStart, s.times[k].submitEnd = job.ID, t0, t1
		s.mu.Unlock()
	}
	timeout := time.NewTimer(2 * time.Minute)
	defer timeout.Stop()
	for got := 0; got < n; got++ {
		select {
		case f := <-s.finish:
			s.mu.Lock()
			if k, ok := s.byID[f.id]; ok {
				s.times[k].finish = f.at
			}
			s.mu.Unlock()
		case <-timeout.C:
			return repData{}, fmt.Errorf("%d of %d jobs finished within two minutes", got, n)
		}
	}
	s.mu.Lock()
	times := s.times
	s.mu.Unlock()

	d := repData{ops: make([]opSample, n), events: s.events.Load() - ev0}
	prev := repStart
	for k, jt := range times {
		// The queue is FIFO with one run slot, so a job's service time is
		// the interval between its predecessor's finish and its own.
		op := opSample{wall: jt.finish.Sub(prev).Seconds(), err: s.checkJob(k, jt)}
		if op.err == nil {
			op.out = math.Float64bits(s.want[k].Reward)
		}
		d.ops[k] = op
		d.busy += jt.run.end.Sub(jt.run.start).Seconds()
		if m.tr != nil {
			s.traceJob(m, k, jt, prev)
		}
		prev = jt.finish
	}
	return d, nil
}

// checkJob holds a finished job to what it must be: done, the whole budget
// spent, the best reward and architecture the stub's maximum over the job's
// proposals, and no worker lost on the way.
func (s *nasdSection) checkJob(k int, jt jobTimes) error {
	job, err := s.mgr.Get(jt.id)
	switch {
	case err != nil:
		return err
	case jt.run.err != nil:
		return jt.run.err
	case job.State != jobs.StateDone || job.Result == nil:
		return fmt.Errorf("job %s ended %s (%s)", jt.id, job.State, job.Error)
	case job.Evals != jobEvals || job.Result.Evals != jobEvals:
		return fmt.Errorf("job %s spent %d evaluations, want %d", jt.id, job.Result.Evals, jobEvals)
	case math.Float64bits(job.Result.BestReward) != math.Float64bits(s.want[k].Reward) || job.Result.BestArch != s.want[k].Arch.Key():
		return fmt.Errorf("job %s best %s=%v, want %s=%v", jt.id, job.Result.BestArch, job.Result.BestReward, s.want[k].Arch.Key(), s.want[k].Reward)
	case jt.run.redispatches != 0 || jt.run.crashes != 0:
		return fmt.Errorf("job %s lost workers: %d crashes, %d re-dispatches", jt.id, jt.run.crashes, jt.run.redispatches)
	}
	return nil
}

// traceJob turns a job's instants into its span tree and scalar samples.
func (s *nasdSection) traceJob(m mode, k int, jt jobTimes, prevFinish time.Time) {
	tr, op := m.tr, m.base+k
	root := tr.add("jobs.job", 0, op, jt.submitStart, jt.finish)
	tr.add("jobs.submit", root, op, jt.submitStart, jt.submitEnd)
	tr.add("jobs.queue_wait", root, op, jt.submitEnd, jt.run.start)
	run := tr.add("jobs.run", root, op, jt.run.start, jt.run.end)
	if !jt.connect.IsZero() {
		tr.add("worker.pool_open", run, op, jt.run.openStart, jt.connect)
	}
	sr := tr.add("search.run", run, op, jt.run.searchStart, jt.run.searchEnd)
	var rpcSum float64
	for _, c := range jt.run.rpcs {
		tr.add("worker.rpc", sr, op, c.start, c.end)
		rpcSum += c.end.Sub(c.start).Seconds()
	}
	tr.add("worker.pool_close", run, op, jt.run.closeStart, jt.run.closeEnd)
	tr.add("jobs.settle", root, op, jt.run.end, jt.finish)

	// The manager's own turn-around: from the moment the job could have
	// started (its predecessor finished, or it was submitted) to Run.
	free := prevFinish
	if jt.submitEnd.After(free) {
		free = jt.submitEnd
	}
	tr.value("jobs.dispatch_ms", 1e3*jt.run.start.Sub(free).Seconds())
	tr.value("search.runner_overhead_us", 1e6*(jt.run.searchEnd.Sub(jt.run.searchStart).Seconds()-rpcSum)/float64(len(jt.run.rpcs)))
	tr.value("search.tail_idle_ms", 1e3*tailIdle(jt.run.rpcs, 1, jt.run.searchEnd))
	tr.value("search.checkpoint_bytes", float64(jt.run.checkpointBytes))
	if fi, err := os.Stat(s.store.ManifestPath(jt.id)); err == nil {
		tr.value("jobs.manifest_bytes_per_op", float64(fi.Size()))
	}
	tr.value("worker.redispatches", float64(jt.run.redispatches))
	tr.value("worker.crashes", float64(jt.run.crashes))
}

// layers reports the search-runner, worker, jobs and fsatomic numbers.
func (s *nasdSection) layers(tr *tracer, out map[string]float64) error {
	ms := func(name string) float64 { return 1e3 * minOf(tr.durations(name)) }
	rpcs := tr.durations("worker.rpc")
	out["search.eval_ms"] = 1e3 * minOf(rpcs)
	out["search.runner_overhead_us"] = minOf(tr.values["search.runner_overhead_us"])
	out["search.tail_idle_ms"] = minOf(tr.values["search.tail_idle_ms"])
	out["search.checkpoint_bytes"] = median(tr.values["search.checkpoint_bytes"])
	out["worker.rpc_us"] = 1e6 * minOf(rpcs)
	out["worker.rpc_p50_us"] = 1e6 * median(rpcs)
	out["worker.pool_open_ms"] = ms("worker.pool_open")
	out["worker.pool_close_ms"] = ms("worker.pool_close")
	out["worker.redispatches"] = quantile(tr.values["worker.redispatches"], 1)
	out["worker.crashes"] = quantile(tr.values["worker.crashes"], 1)
	out["jobs.submit_ms"] = ms("jobs.submit")
	out["jobs.queue_wait_ms"] = 1e3 * median(tr.durations("jobs.queue_wait"))
	out["jobs.dispatch_ms"] = minOf(tr.values["jobs.dispatch_ms"])
	out["jobs.settle_ms"] = ms("jobs.settle")
	out["jobs.manifest_bytes_per_op"] = median(tr.values["jobs.manifest_bytes_per_op"])

	data := make([]byte, 2048)
	var writes []float64
	for i := 0; i < 50; i++ {
		t0 := time.Now()
		if err := fsatomic.WriteFile(filepath.Join(s.dir, "probe.bin"), data, 0o644); err != nil {
			return err
		}
		writes = append(writes, time.Since(t0).Seconds())
	}
	out["fsatomic.write_us"] = 1e6 * minOf(writes)
	return nil
}

// tidy runs between reps, outside their timing: it holds the store to the
// burst just run — every job there, terminal, no manifest corrupt — and then
// removes the burst's files, so that neither the directory nor a small
// tmpfs grows with the length of the run.
func (s *nasdSection) tidy() error {
	all, bad := s.store.LoadAll()
	if len(bad) > 0 {
		return fmt.Errorf("store holds %d corrupt manifests: %v", len(bad), bad[0])
	}
	if len(all) != len(s.specs) {
		return fmt.Errorf("store holds %d jobs after a burst of %d", len(all), len(s.specs))
	}
	for _, j := range all {
		if !j.State.Terminal() {
			return fmt.Errorf("job %s was left %s", j.ID, j.State)
		}
		if err := s.store.Remove(j.ID); err != nil {
			return err
		}
	}
	return nil
}

// close stops the manager and the agent and removes the state directory.
func (s *nasdSection) close() error {
	var err error
	if s.mgr != nil {
		err = s.mgr.Close()
	}
	if s.stopAgent != nil {
		s.stopAgent()
		if aerr := <-s.agentDone; err == nil {
			err = aerr
		}
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
