package worker

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"podnas/internal/arch"
	"podnas/internal/obs"
	"podnas/internal/obs/span"
	"podnas/internal/search"
	"podnas/internal/tensor"
)

// errPoolClosed signals a supervision loop ending because Close was called,
// not because its worker failed.
var errPoolClosed = errors.New("worker: pool closed")

// errHeartbeat marks a worker killed for going silent.
var errHeartbeat = errors.New("worker: missed heartbeats")

// PoolOptions configures a supervised pool of worker processes.
type PoolOptions struct {
	// Workers is the number of worker slots kept attached (>= 1).
	Workers int
	// Transport attaches slots to workers (required): a PipeTransport spawns
	// local subprocesses — the classic isolated pool — and a DialTransport
	// attaches slots to remote agents over TCP; the supervision loop
	// (heartbeats, restart budgets, speculation, CrashLimit) is identical
	// either way.
	Transport Transport
	// LocalFallback, when non-nil, is the transport a slot degrades to after
	// its primary Transport stays unreachable past the restart budget —
	// typically a PipeTransport, so a driver that loses its remote agents
	// falls back to local subprocess workers before giving up entirely. The
	// slot's restart budget resets on the switch.
	LocalFallback Transport
	// Heartbeat is the expected heartbeat cadence (default 1s); it must
	// match the interval the worker serves with.
	Heartbeat time.Duration
	// HeartbeatMisses is how many consecutive silent intervals mark a worker
	// dead (default 3). Detection uses any frame as proof of life.
	HeartbeatMisses int
	// MaxRestarts is the per-worker respawn budget (default 3). A slot that
	// exhausts it retires; when every slot has retired the pool degrades
	// (see Fallback).
	MaxRestarts int
	// RestartBackoff is the base respawn delay (default 100ms), doubled per
	// consecutive restart with seeded jitter and capped at MaxBackoff
	// (default 5s).
	RestartBackoff time.Duration
	MaxBackoff     time.Duration
	// StartTimeout bounds spawn-to-ready, which includes the worker building
	// its data pipeline (default 120s).
	StartTimeout time.Duration
	// Seed derives the deterministic restart-backoff jitter.
	Seed uint64
	// SpeculativeAfter, when positive, re-dispatches an evaluation still
	// unanswered after this long to a second worker — the paper's defense
	// against straggler nodes. The first result wins; the loser is
	// cancelled. At most one speculative copy runs per evaluation.
	SpeculativeAfter time.Duration
	// Fallback, when non-nil, evaluates in-process once the pool has
	// degraded: spawning unavailable or every slot retired. With a nil
	// Fallback a degraded pool fails evaluations with ErrTransient so the
	// runner's retry policy decides.
	Fallback search.Evaluator
	// KillNth, when positive, kills the worker attachment right after it is
	// sent the Nth dispatched evaluation (counting every dispatch, once):
	// SIGKILL for a subprocess, connection close for a remote agent —
	// deterministic fault injection for tests and CI smoke runs.
	KillNth int
	// CrashLimit is how many worker crashes a single evaluation may consume
	// before it fails with ErrTransient instead of being re-dispatched
	// (default 3). It bounds the damage of a poison evaluation that kills
	// every worker it touches.
	CrashLimit int
	// Recorder, when non-nil, receives supervision events: worker
	// spawn/crash/restart, heartbeat kills, speculation launches/wins, and
	// remote connect/disconnect/lease-expiry. The Event.Worker field carries
	// the pool slot.
	Recorder obs.Recorder
	// Trace, when valid, is the run's root span context. Connection-level
	// spans (handshake) parent under it; per-evaluation spans (dispatch,
	// rpc, and the worker-side train/epoch subtree) parent under the eval
	// span the runner plants into the evaluation context. The zero value
	// disables pool span emission entirely.
	Trace span.Context
}

func (o PoolOptions) heartbeat() time.Duration {
	if o.Heartbeat > 0 {
		return o.Heartbeat
	}
	return time.Second
}

func (o PoolOptions) heartbeatTimeout() time.Duration {
	misses := o.HeartbeatMisses
	if misses < 2 {
		misses = 3
	}
	return time.Duration(misses) * o.heartbeat()
}

func (o PoolOptions) maxRestarts() int {
	if o.MaxRestarts > 0 {
		return o.MaxRestarts
	}
	if o.MaxRestarts == 0 {
		return 3
	}
	return 0
}

func (o PoolOptions) startTimeout() time.Duration {
	if o.StartTimeout > 0 {
		return o.StartTimeout
	}
	return 120 * time.Second
}

func (o PoolOptions) crashLimit() int {
	if o.CrashLimit > 0 {
		return o.CrashLimit
	}
	return 3
}

// PoolStats counts supervision events.
type PoolStats struct {
	Spawns            int // worker attachments started (incl. restarts)
	Restarts          int // respawns after a crash or silent death
	Crashes           int // worker deaths: non-zero exits, broken pipes, dropped links
	HeartbeatTimeouts int // workers killed for going silent
	Redispatches      int // evaluations re-queued after losing their worker
	SpeculativeRuns   int // duplicate dispatches of stragglers
	SpeculativeWins   int // evaluations decided by the speculative copy
	FallbackEvals     int // evaluations served in-process after degradation
	Connects          int // remote connections handshaken and leased
	Disconnects       int // remote connections lost
	LeaseExpires      int // leases retired with an evaluation still in flight
	StaleLeaseFrames  int // frames fenced off for carrying a superseded lease
	LocalFallbacks    int // slots demoted from the remote transport to LocalFallback
	Degraded          bool
}

// jobResult is the terminal outcome of one pooled evaluation.
type jobResult struct {
	reward float64
	err    error
}

// job is one evaluation moving through the pool. The same *job may sit in
// the queue twice (crash re-dispatch, speculation); the done flag makes
// delivery first-wins and everything after it a no-op.
type job struct {
	id     uint64
	a      arch.Arch
	seed   uint64
	ctx    context.Context    // cancelled when the job no longer matters
	cancel context.CancelFunc // fires ctx: caller gone or a dispatch won
	res    chan jobResult     // buffered 1; written by the winning deliver

	// Tracing identity, captured from the caller's context at submit time:
	// sc is the eval span the runner derived (zero = tracing off for this
	// job), eval its index in the run, enq the enqueue instant (the
	// dispatch span's start).
	sc   span.Context
	eval int
	enq  time.Time

	mu      sync.Mutex
	done    bool
	crashes int // workers lost while running this job

	dispatches atomic.Int64 // total dispatch attempts
	// specAt is the dispatch count at the moment the speculative copy was
	// enqueued (0 = never speculated): any later dispatch is the copy, so a
	// result from it counts as a speculative win.
	specAt atomic.Int64
}

func (j *job) finished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done
}

// tryFinish marks the job done if no result has been delivered, returning
// whether this call won the race.
func (j *job) tryFinish() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return false
	}
	j.done = true
	return true
}

// deliver records the first result and cancels any other dispatch of the
// same job (the speculation loser). Later results are dropped.
func (j *job) deliver(r jobResult) bool {
	if !j.tryFinish() {
		return false
	}
	j.res <- r
	j.cancel()
	return true
}

// Pool dispatches evaluations to supervised workers — subprocesses over
// pipes or remote agents over TCP, per its Transport. It implements
// search.Evaluator and search.ContextEvaluator, so the search runners use
// it exactly like the in-process TrainingEvaluator. Safe for concurrent
// use.
type Pool struct {
	opts  PoolOptions
	queue chan *job

	closed    chan struct{}
	closeOnce sync.Once
	failed    chan struct{} // closed when the last worker slot retires
	failOnce  sync.Once
	wg        sync.WaitGroup

	live        atomic.Int64
	everReady   atomic.Bool
	nextJobID   atomic.Uint64
	dispatchSeq atomic.Int64

	mu     sync.Mutex
	stats  PoolStats
	idents map[int]SlotIdentity // worker slot -> live attachment identity
}

// NewPool starts the supervision loops and returns immediately; workers
// attach and handshake in the background, and evaluations queue until one
// is ready. Callers must Close the pool to reap processes and connections.
func NewPool(opts PoolOptions) (*Pool, error) {
	if opts.Workers < 1 {
		return nil, fmt.Errorf("worker: pool needs at least one worker, got %d", opts.Workers)
	}
	if opts.Transport == nil {
		return nil, errors.New("worker: pool needs a Transport")
	}
	p := &Pool{
		opts:   opts,
		queue:  make(chan *job, 16*opts.Workers+64),
		closed: make(chan struct{}),
		failed: make(chan struct{}),
		idents: make(map[int]SlotIdentity),
	}
	p.live.Store(int64(opts.Workers))
	p.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go p.supervise(i)
	}
	return p, nil
}

// Close shuts every worker down (gracefully when idle, forcefully when
// mid-evaluation) and waits for the supervision loops to exit.
func (p *Pool) Close() error {
	p.closeOnce.Do(func() { close(p.closed) })
	p.wg.Wait()
	return nil
}

// Stats returns a snapshot of the supervision counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Pids returns the pids of the currently live local worker processes, for
// tests that kill real workers from outside. Remote slots have no local
// pid and are not listed — see Identities for the full per-slot view.
func (p *Pool) Pids() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, 0, len(p.idents))
	for _, id := range p.idents {
		if !id.Remote {
			out = append(out, id.PID)
		}
	}
	return out
}

// Identities returns the transport identity of every currently attached
// slot: "local:<pid>" for subprocess workers, "remote:<addr>#<lease>" for
// leased network attachments.
func (p *Pool) Identities() map[int]SlotIdentity {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[int]SlotIdentity, len(p.idents))
	for slot, id := range p.idents {
		out[slot] = id
	}
	return out
}

// Evaluate implements search.Evaluator.
func (p *Pool) Evaluate(a arch.Arch, seed uint64) (float64, error) {
	return p.EvaluateCtx(context.Background(), a, seed)
}

// EvaluateCtx dispatches one evaluation to the pool and blocks until a
// worker answers, the context is cancelled, or the pool degrades. Worker
// crashes are absorbed internally: the evaluation is re-dispatched (bounded
// by CrashLimit) and the caller only ever sees the final outcome.
func (p *Pool) EvaluateCtx(ctx context.Context, a arch.Arch, seed uint64) (float64, error) {
	select {
	case <-p.failed:
		return p.degradedEval(ctx, a, seed)
	default:
	}
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	j := &job{
		id: p.nextJobID.Add(1), a: a.Clone(), seed: seed,
		ctx: jctx, cancel: cancel, res: make(chan jobResult, 1),
	}
	if sc, ok := span.From(ctx); ok && p.opts.Trace.Valid() {
		j.sc = sc
		j.eval, _ = obs.EvalFrom(ctx)
		j.enq = time.Now()
	}
	select {
	case p.queue <- j:
	case <-ctx.Done():
		return 0, fmt.Errorf("worker: evaluation cancelled: %w", ctx.Err())
	case <-p.failed:
		return p.degradedEval(ctx, a, seed)
	}
	var spec <-chan time.Time
	if p.opts.SpeculativeAfter > 0 {
		t := time.NewTimer(p.opts.SpeculativeAfter)
		defer t.Stop()
		spec = t.C
	}
	for {
		select {
		case r := <-j.res:
			return r.reward, r.err
		case <-ctx.Done():
			if j.tryFinish() {
				return 0, fmt.Errorf("worker: evaluation cancelled: %w", ctx.Err())
			}
			r := <-j.res // a result raced the cancellation in; take it
			return r.reward, r.err
		case <-p.failed:
			if j.tryFinish() {
				return p.degradedEval(ctx, a, seed)
			}
			r := <-j.res
			return r.reward, r.err
		case <-spec:
			// Straggler: enqueue one speculative copy. Best-effort — a full
			// queue means every worker is saturated and a duplicate could
			// not run anyway.
			spec = nil
			// Stored before the send: a slot may dequeue the copy and bump
			// dispatches before this goroutine runs again.
			j.specAt.Store(j.dispatches.Load())
			select {
			case p.queue <- j:
				p.bump(func(s *PoolStats) { s.SpeculativeRuns++ })
				p.record(obs.Event{Kind: obs.KindSpecLaunch, Eval: int(j.id)})
			default:
				j.specAt.Store(0)
			}
		}
	}
}

// degradedEval serves an evaluation after the pool has lost every worker:
// in-process via Fallback when configured, otherwise a transient error so
// the runner's retry policy (and DivergedReward accounting) takes over.
func (p *Pool) degradedEval(ctx context.Context, a arch.Arch, seed uint64) (float64, error) {
	if p.opts.Fallback == nil {
		return 0, fmt.Errorf("worker: no live workers (restart budgets exhausted): %w", search.ErrTransient)
	}
	p.bump(func(s *PoolStats) { s.FallbackEvals++ })
	if ce, ok := p.opts.Fallback.(search.ContextEvaluator); ok {
		return ce.EvaluateCtx(ctx, a, seed)
	}
	return p.opts.Fallback.Evaluate(a, seed)
}

func (p *Pool) bump(f func(*PoolStats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// record forwards one supervision event to the configured Recorder. Pool
// events carry only ints and static strings, so constructing the Event for a
// nil Recorder costs nothing measurable.
func (p *Pool) record(e obs.Event) {
	if p.opts.Recorder != nil {
		p.opts.Recorder.Record(e)
	}
}

// supervise owns one worker slot: attach, serve jobs, and on any failure
// reattach with seeded exponential backoff until the restart budget runs
// out. A slot on a remote transport that stays unreachable past the budget
// demotes to LocalFallback (when configured) before retiring.
func (p *Pool) supervise(workerID int) {
	defer p.wg.Done()
	defer p.retire()
	tr := p.opts.Transport
	restarts := 0
	for incarnation := 0; ; incarnation++ {
		select {
		case <-p.closed:
			return
		default:
		}
		w, started, err := p.connect(tr, workerID, incarnation)
		if err == nil {
			id := w.id
			p.everReady.Store(true)
			p.setIdent(workerID, id)
			p.record(obs.Event{Kind: obs.KindWorkerSpawn, Worker: workerID, Attempt: incarnation})
			if id.Remote {
				p.bump(func(s *PoolStats) { s.Connects++ })
				p.record(obs.Event{Kind: obs.KindWorkerConnect, Worker: workerID, Attempt: id.Epoch, Ident: id.String()})
			}
			err = p.serve(workerID, w)
			p.clearIdent(workerID)
			w.EnsureDead()
			if n := w.fenced.Load(); n > 0 {
				p.bump(func(s *PoolStats) { s.StaleLeaseFrames += int(n) })
			}
			if errors.Is(err, errPoolClosed) {
				return
			}
			p.bump(func(s *PoolStats) {
				s.Crashes++
				if errors.Is(err, errHeartbeat) {
					s.HeartbeatTimeouts++
				}
				if id.Remote {
					s.Disconnects++
				}
			})
			if errors.Is(err, errHeartbeat) {
				p.record(obs.Event{Kind: obs.KindHeartbeatMiss, Worker: workerID, Err: err.Error()})
			}
			if id.Remote {
				p.record(obs.Event{Kind: obs.KindWorkerDisconnect, Worker: workerID, Ident: id.String(), Err: err.Error()})
			}
			p.record(obs.Event{Kind: obs.KindWorkerCrash, Worker: workerID, Attempt: incarnation, Err: err.Error()})
		} else {
			if errors.Is(err, errPoolClosed) {
				return
			}
			if !started && !p.everReady.Load() {
				// The worker endpoint cannot even come up and no worker ever
				// could: the transport is unavailable. Demote to the local
				// fallback transport when there is one; otherwise retire
				// immediately so the pool degrades to the in-process Fallback
				// without burning the restart budget on a hopeless loop.
				if next := p.demote(tr, workerID, err); next != nil {
					tr, restarts = next, 0
					continue
				}
				fmt.Fprintf(os.Stderr, "worker: slot %d cannot spawn (%v); degrading\n", workerID, err)
				return
			}
			fmt.Fprintf(os.Stderr, "worker: slot %d spawn failed: %v\n", workerID, err)
		}
		if restarts >= p.opts.maxRestarts() {
			if next := p.demote(tr, workerID, err); next != nil {
				tr, restarts = next, 0
				continue
			}
			return
		}
		restarts++
		p.bump(func(s *PoolStats) { s.Restarts++ })
		p.record(obs.Event{Kind: obs.KindWorkerRestart, Worker: workerID, Attempt: restarts})
		select {
		case <-p.closed:
			return
		case <-time.After(p.backoffDelay(workerID, restarts)):
		}
	}
}

// demote switches one slot off a failed primary transport onto
// LocalFallback, resetting its restart budget. It returns nil — keep
// retiring — when there is no fallback or the slot is already on it.
func (p *Pool) demote(cur Transport, workerID int, cause error) Transport {
	lf := p.opts.LocalFallback
	if lf == nil || cur == lf {
		return nil
	}
	p.bump(func(s *PoolStats) { s.LocalFallbacks++ })
	fmt.Fprintf(os.Stderr, "worker: slot %d: %s transport exhausted its budget (%v); degrading to %s workers\n",
		workerID, cur.Kind(), cause, lf.Kind())
	return lf
}

// backoffDelay is the reattach delay: exponential in the consecutive
// restart count with deterministic seeded jitter in [0.5, 1.5), capped.
func (p *Pool) backoffDelay(workerID, attempt int) time.Duration {
	base := p.opts.RestartBackoff
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	ceil := p.opts.MaxBackoff
	if ceil <= 0 {
		ceil = 5 * time.Second
	}
	d := float64(base)
	for i := 1; i < attempt && time.Duration(d) < ceil; i++ {
		d *= 2
	}
	rng := tensor.NewRNG(p.opts.Seed ^ uint64(workerID)*0x9e3779b97f4a7c15 ^ uint64(attempt)*0x2545f4914f6cdd1d)
	d *= 0.5 + rng.Float64()
	if time.Duration(d) > ceil {
		return ceil
	}
	return time.Duration(d)
}

// retire removes this slot from the live set; the last retirement fails the
// pool so pending and future evaluations degrade instead of queueing
// forever.
func (p *Pool) retire() {
	if p.live.Add(-1) != 0 {
		return
	}
	p.failOnce.Do(func() {
		select {
		case <-p.closed: // normal shutdown, not degradation
		default:
			p.bump(func(s *PoolStats) { s.Degraded = true })
		}
		close(p.failed)
	})
}

func (p *Pool) setIdent(workerID int, id SlotIdentity) {
	p.mu.Lock()
	p.idents[workerID] = id
	p.mu.Unlock()
}

func (p *Pool) clearIdent(workerID int) {
	p.mu.Lock()
	delete(p.idents, workerID)
	p.mu.Unlock()
}

// inflight is the evaluation a busy attachment is running; the zero value
// (nil j) is the idle state.
type inflight struct {
	j       *job
	attempt int64
	// rpc is the span context stamped on the eval frame; zero when the job
	// carries no eval span or the peer does not speak the trace capability.
	rpc    span.Context
	sentAt time.Time
}

// serve drives one ready attachment until the pool closes or the attachment
// fails (crash, broken pipe, dropped link, missed heartbeats). The loop has
// two states: idle, where it takes the next job off the queue, and busy,
// where the queue arm is off (a nil channel) until the job's result frame
// arrives — even if the job itself failed or was cancelled, the worker is
// then healthy and idle again. An error return means the attachment is lost;
// an evaluation it was running has been handed to requeue.
func (p *Pool) serve(workerID int, w *attachment) error {
	hbTimeout := p.opts.heartbeatTimeout()
	check := time.NewTicker(checkInterval(hbTimeout))
	defer check.Stop()
	var (
		cur       inflight
		queue     = p.queue
		cancelled <-chan struct{} // cur.j.ctx.Done() until the cancel frame is sent
	)
	lost := func(err error) error {
		j := cur.j
		if j == nil {
			return err
		}
		if w.id.Remote && !errors.Is(err, errPoolClosed) && !j.finished() {
			// The lease died with the evaluation still claimed under it: the
			// job is re-dispatched under whatever lease comes next, and any
			// result the old worker still grinds out is fenced off by its
			// stale lease ID.
			p.bump(func(s *PoolStats) { s.LeaseExpires++ })
			p.record(obs.Event{Kind: obs.KindLeaseExpire, Worker: workerID, Eval: int(j.id), Ident: w.id.String()})
		}
		p.requeue(j)
		return err
	}
	for {
		select {
		case <-p.closed:
			if cur.j == nil {
				w.Shutdown()
			} else {
				w.Kill()
			}
			return lost(errPoolClosed)
		case m, ok := <-w.msgs:
			switch {
			case !ok && cur.j == nil:
				return fmt.Errorf("worker: worker lost while idle: %w", w.WaitResult())
			case !ok:
				return lost(fmt.Errorf("worker: worker died mid-evaluation: %w", w.WaitResult()))
			case m.Type == MsgSpan:
				// While idle this is a span straggling in after its evaluation
				// was delivered or cancelled: it carries its own tree position,
				// so it is still worth recording, under evaluation index 0.
				evalIdx := 0
				if cur.j != nil {
					evalIdx = cur.j.eval
				}
				p.recordSpanFrame(m, evalIdx, workerID)
			case cur.j != nil && m.Type == MsgResult && m.ID == cur.j.id:
				p.deliverResult(cur.j, m, cur.attempt)
				if cur.rpc.Valid() {
					e := span.End(cur.rpc, cur.j.sc.Span, "rpc", time.Since(cur.sentAt))
					e.Eval, e.Worker = cur.j.eval, workerID
					p.record(e)
				}
				cur, queue, cancelled = inflight{}, p.queue, nil
			}
			// Anything else is a heartbeat or a stale result from a previously
			// cancelled job; proof of life was already recorded by the pump.
		case <-check.C:
			if w.Stale(hbTimeout) {
				w.Kill()
				return lost(errHeartbeat)
			}
		case j := <-queue:
			if j.finished() {
				continue
			}
			cur = inflight{j: j, attempt: j.dispatches.Add(1)}
			if err := p.dispatch(w, &cur, workerID); err != nil {
				return lost(err)
			}
			queue, cancelled = nil, j.ctx.Done()
		case <-cancelled:
			// The job stopped mattering: the caller is gone or another
			// dispatch won. Ask the worker to abandon it, then keep waiting
			// for the acknowledging result so the worker returns to a known
			// idle state; the heartbeat check still covers a wedged worker.
			cancelled = nil
			if err := w.Send(Message{Type: MsgCancel, ID: cur.j.id}); err != nil {
				return lost(fmt.Errorf("worker: cancel write: %w", err))
			}
		}
	}
}

// dispatch sends cur's evaluation to w; the result is awaited by serve.
//
// When the job carries an eval span and the peer speaks the trace
// capability, the eval frame is stamped with a derived "rpc" span context:
// the worker parents its train/epoch spans under it, and the pool records
// the rpc span itself (send → result delivery) plus a "dispatch" span
// covering the queue wait inside the pool.
func (p *Pool) dispatch(w *attachment, cur *inflight, workerID int) error {
	j := cur.j
	seq := p.dispatchSeq.Add(1)
	frame := Message{Type: MsgEval, ID: j.id, Arch: j.a, Seed: j.seed}
	if j.sc.Valid() && w.traces {
		cur.rpc = span.Derive(j.sc, "rpc", j.id, uint64(cur.attempt))
		frame.Trace = cur.rpc.Encode()
	}
	cur.sentAt = time.Now()
	if err := w.Send(frame); err != nil {
		return fmt.Errorf("worker: dispatch write: %w", err)
	}
	if cur.rpc.Valid() {
		e := span.End(span.Derive(j.sc, "dispatch", j.id, uint64(cur.attempt)), j.sc.Span, "dispatch", cur.sentAt.Sub(j.enq))
		e.Eval, e.Worker = j.eval, workerID
		p.record(e)
	}
	if p.opts.KillNth > 0 && seq == int64(p.opts.KillNth) {
		// Deterministic injected fault: kill the attachment mid-evaluation
		// (SIGKILL for a subprocess, link cut for a remote agent).
		w.Kill()
	}
	return nil
}

// recordSpanFrame re-records a span that completed in the worker process
// into the driver-side event stream, which is what stitches the remote
// subtree (train, epochs) into the trace. Frames with a malformed span
// context are dropped — a corrupt identity poisons a tree.
func (p *Pool) recordSpanFrame(m Message, evalIdx, workerID int) {
	sc, err := span.Decode(m.Trace)
	if err != nil {
		return
	}
	var parent span.ID
	if m.Parent != "" {
		if parent, err = span.ParseID(m.Parent); err != nil {
			return
		}
	}
	e := span.End(sc, parent, m.Name, 0)
	e.Seconds = m.Seconds
	e.Eval, e.Worker, e.Epoch = evalIdx, workerID, m.TrainEpoch
	p.record(e)
}

// deliverResult decodes a result frame and completes the job. Transient
// worker-side failures are re-wrapped with ErrTransient so the runner's
// retry policy sees them exactly as in-process ones.
func (p *Pool) deliverResult(j *job, m Message, attempt int64) {
	var err error
	if m.Err != "" {
		if m.Transient {
			err = fmt.Errorf("%s: %w", m.Err, search.ErrTransient)
		} else {
			err = errors.New(m.Err)
		}
	}
	if j.deliver(jobResult{reward: m.Reward, err: err}) {
		if sa := j.specAt.Load(); sa > 0 && attempt > sa {
			p.bump(func(s *PoolStats) { s.SpeculativeWins++ })
			p.record(obs.Event{Kind: obs.KindSpecWin, Eval: int(j.id)})
		}
	}
}

// requeue gives a job whose worker died another chance, bounded by
// CrashLimit; past the limit it fails transiently (a poison evaluation must
// not grind through every worker's restart budget).
func (p *Pool) requeue(j *job) {
	if j.finished() {
		return
	}
	j.mu.Lock()
	j.crashes++
	crashes := j.crashes
	j.mu.Unlock()
	if crashes >= p.opts.crashLimit() {
		j.deliver(jobResult{err: fmt.Errorf("worker: evaluation lost %d workers: %w", crashes, search.ErrTransient)})
		return
	}
	p.bump(func(s *PoolStats) { s.Redispatches++ })
	select {
	case p.queue <- j:
	default:
		go func() {
			select {
			case p.queue <- j:
			case <-j.ctx.Done():
			case <-p.closed:
			}
		}()
	}
}

func checkInterval(hbTimeout time.Duration) time.Duration {
	iv := hbTimeout / 4
	if iv < 10*time.Millisecond {
		iv = 10 * time.Millisecond
	}
	return iv
}

// connect attaches one worker through tr and waits for its ready frame
// under StartTimeout. started reports whether an attachment ever came up
// (false = the endpoint itself is unavailable, the fast-degradation
// signal).
func (p *Pool) connect(tr Transport, workerID, incarnation int) (w *attachment, started bool, err error) {
	t0 := time.Now()
	w, started, err = tr.attach(workerID, incarnation, p.closed)
	if err != nil {
		return nil, started, err
	}
	p.bump(func(s *PoolStats) { s.Spawns++ })
	ready := time.NewTimer(p.opts.startTimeout())
	defer ready.Stop()
	for {
		select {
		case m, ok := <-w.msgs:
			if !ok {
				return nil, true, fmt.Errorf("worker: exited before ready: %w", w.WaitResult())
			}
			if m.Type == MsgReady {
				if root := p.opts.Trace; root.Valid() {
					// The handshake span covers attach-to-ready: dial +
					// hello/welcome for remote slots, spawn + pipeline build
					// for local ones.
					e := span.End(span.Derive(root, "handshake", uint64(workerID), uint64(incarnation)), root.Span, "handshake", time.Since(t0))
					e.Worker = workerID
					p.record(e)
				}
				return w, true, nil
			}
		case <-ready.C:
			w.EnsureDead()
			return nil, true, fmt.Errorf("worker: not ready within %v", p.opts.startTimeout())
		case <-p.closed:
			w.EnsureDead()
			return nil, true, errPoolClosed
		}
	}
}
