package obs

import (
	"math"
	"sync"
	"time"

	"podnas/internal/metrics"
)

// Metrics is a Recorder that computes the paper's operational quantities
// live from the event stream: the window-100 moving-average reward and the
// trapezoidal node-utilization AUC that normally require a finished
// SearchResult (or an hpcsim run) to compute post-hoc, plus evaluation
// throughput, unique high performers, and supervision counters. Feed it the
// same events as a Ring and the two computations agree to float rounding,
// which is exactly the live-vs-post-hoc cross-check the tests enforce.
//
// All state transitions are driven by event timestamps, not wall reads at
// Record time, so replaying a recorded stream reproduces the same snapshot.
type Metrics struct {
	clock

	// Workers is the evaluation-slot capacity — the utilization
	// denominator, the analogue of hpcsim's node count.
	workers int
	// highThreshold is the unique-high-performer reward cutoff (paper 0.96).
	highThreshold float64

	mu sync.Mutex

	evals, successes, errors, retries int
	epochs, rounds, checkpoints       int
	spawns, crashes, restarts         int
	hbMisses, specs, specWins         int
	connects, disconnects, leaseExps  int

	// Job-lifecycle tallies (nasd daemon runs; zero in one-shot traces).
	jobSubmits, jobStarts, jobCheckpoints int
	jobFinishes, jobEvicts                int

	// Span and SLO tallies plus the latency distributions the /metrics
	// exposition and the SLO watch-loop read: evaluation wall time (from
	// terminal eval events) and queue wait (from "queue_wait" spans).
	spans, sloBreaches int
	evalLat, queueWait *hist

	// ma is the shared streaming window average (metrics.WindowMA), the
	// same implementation hpcsim's batch MovingAverage and obs/replay are
	// cross-checked against.
	ma *metrics.WindowMA

	best      float64
	high      map[string]bool
	inflight  map[int]time.Duration // eval index -> start offset
	busy      time.Duration         // completed evaluations' busy time
	lastT     time.Duration
	perWorker map[int]*WorkerCounters
}

// WorkerCounters are the per-slot supervision tallies.
type WorkerCounters struct {
	Spawns          int `json:"spawns"`
	Crashes         int `json:"crashes"`
	Restarts        int `json:"restarts"`
	HeartbeatMisses int `json:"heartbeat_misses"`
	Connects        int `json:"connects,omitempty"`
	Disconnects     int `json:"disconnects,omitempty"`
	LeaseExpires    int `json:"lease_expires,omitempty"`
}

// MetricsOptions tune the aggregator; zero values take the paper defaults.
type MetricsOptions struct {
	// Window is the moving-average window (default 100).
	Window int
	// HighThreshold is the unique-high-performer cutoff (default 0.96).
	HighThreshold float64
}

// NewMetrics returns an aggregator sized for the given evaluation-slot
// count (minimum 1) with paper-default window (100) and high-performer
// threshold (0.96).
func NewMetrics(workers int) *Metrics { return NewMetricsOpts(workers, MetricsOptions{}) }

// NewMetricsOpts is NewMetrics with explicit tuning.
func NewMetricsOpts(workers int, opts MetricsOptions) *Metrics {
	if workers < 1 {
		workers = 1
	}
	if opts.Window <= 0 {
		opts.Window = 100
	}
	//podnas:allow floateq zero-value option detection: 0 means "take the paper default"
	if opts.HighThreshold == 0 {
		opts.HighThreshold = 0.96
	}
	return &Metrics{
		clock: newClock(), workers: workers,
		highThreshold: opts.HighThreshold,
		ma:            metrics.NewWindowMA(opts.Window),
		best:          math.Inf(-1),
		high:          make(map[string]bool),
		inflight:      make(map[int]time.Duration),
		perWorker:     make(map[int]*WorkerCounters),
		evalLat:       newHist(),
		queueWait:     newHist(),
	}
}

func (m *Metrics) worker(id int) *WorkerCounters {
	w := m.perWorker[id]
	if w == nil {
		w = &WorkerCounters{}
		m.perWorker[id] = w
	}
	return w
}

// Record implements Recorder.
func (m *Metrics) Record(e Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stamp(&e)
	if e.T > m.lastT {
		m.lastT = e.T
	}
	switch e.Kind {
	case KindSearchFinish:
		// Evaluations still in flight when the run closes (cancelled
		// mid-training, workers torn down) were busy right up to the finish
		// event and will never report their own terminal event. Fold that
		// time into the committed busy total and settle the in-flight set,
		// so the AUC of a truncated run matches hpcsim's trapezoidal
		// busy-interval definition instead of under-counting those slots.
		for idx, start := range m.inflight {
			if e.T > start {
				m.busy += e.T - start
			}
			delete(m.inflight, idx)
		}
	case KindEvalStart:
		m.inflight[e.Eval] = e.T
	case KindEvalFinish:
		m.closeEval(e)
		m.evalLat.add(e.Seconds)
		m.successes++
		m.ma.Push(e.Reward)
		if e.Reward > m.best {
			m.best = e.Reward
		}
		if e.Reward > m.highThreshold && e.Arch != "" {
			m.high[e.Arch] = true
		}
	case KindEvalError:
		m.closeEval(e)
		m.evalLat.add(e.Seconds)
		m.errors++
	case KindEvalRetry:
		m.retries++
	case KindEpoch:
		m.epochs++
	case KindRound:
		m.rounds++
	case KindCheckpoint:
		m.checkpoints++
	case KindWorkerSpawn:
		m.spawns++
		m.worker(e.Worker).Spawns++
	case KindWorkerCrash:
		m.crashes++
		m.worker(e.Worker).Crashes++
	case KindWorkerRestart:
		m.restarts++
		m.worker(e.Worker).Restarts++
	case KindHeartbeatMiss:
		m.hbMisses++
		m.worker(e.Worker).HeartbeatMisses++
	case KindSpecLaunch:
		m.specs++
	case KindSpecWin:
		m.specWins++
	case KindWorkerConnect:
		m.connects++
		m.worker(e.Worker).Connects++
	case KindWorkerDisconnect:
		m.disconnects++
		m.worker(e.Worker).Disconnects++
	case KindLeaseExpire:
		m.leaseExps++
		m.worker(e.Worker).LeaseExpires++
	case KindJobSubmit:
		m.jobSubmits++
	case KindJobStart:
		m.jobStarts++
	case KindJobCheckpoint:
		m.jobCheckpoints++
	case KindJobFinish:
		m.jobFinishes++
	case KindJobEvict:
		m.jobEvicts++
	case KindSpan:
		m.spans++
		// Queue-wait spans are the only span family folded into a
		// distribution here; the rest are tree structure for replay, not
		// aggregate state.
		if e.Name == "queue_wait" {
			m.queueWait.add(e.Seconds)
		}
	case KindSLOBreach:
		m.sloBreaches++
	case KindSearchStart, KindTraceHeader:
		// Run metadata: no aggregate state beyond the clock advance above.
	default:
		// Unknown kinds (a trace from a newer writer replayed through this
		// fold) advance the clock only. Declared kinds never land here:
		// podnaslint's kindswitch check keeps this fold exhaustive, so adding
		// an event kind forces an explicit decision in this switch.
	}
}

// closeEval accounts one terminal evaluation: its busy interval (for the
// utilization AUC) and the completion counter.
func (m *Metrics) closeEval(e Event) {
	m.evals++
	if start, ok := m.inflight[e.Eval]; ok {
		if e.T > start {
			m.busy += e.T - start
		}
		delete(m.inflight, e.Eval)
	}
}

// Snapshot is one consistent view of the live metrics, JSON-encodable
// (non-finite values are clamped to zero so encoding never fails).
type Snapshot struct {
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Workers        int     `json:"workers"`

	Evals       int     `json:"evals"`
	Successes   int     `json:"successes"`
	Errors      int     `json:"errors"`
	Retries     int     `json:"retries"`
	InFlight    int     `json:"in_flight"`
	EvalsPerSec float64 `json:"evals_per_sec"`

	RewardMA   float64 `json:"reward_ma"`
	LastReward float64 `json:"last_reward"`
	BestReward float64 `json:"best_reward"`
	UniqueHigh int     `json:"unique_high"`

	// UtilizationAUC is busy-slot-seconds (including in-flight evaluations
	// up to the last event) over Workers × elapsed — the live counterpart of
	// hpcsim's trapezoid-integrated busy-node AUC ratio.
	UtilizationAUC float64 `json:"utilization_auc"`
	BusySeconds    float64 `json:"busy_seconds"`

	Epochs      int `json:"epochs"`
	Rounds      int `json:"rounds"`
	Checkpoints int `json:"checkpoints"`

	WorkerSpawns      int                    `json:"worker_spawns"`
	WorkerCrashes     int                    `json:"worker_crashes"`
	WorkerRestarts    int                    `json:"worker_restarts"`
	HeartbeatMisses   int                    `json:"heartbeat_misses"`
	Speculations      int                    `json:"speculations"`
	SpeculativeWins   int                    `json:"speculative_wins"`
	WorkerConnects    int                    `json:"worker_connects"`
	WorkerDisconnects int                    `json:"worker_disconnects"`
	LeaseExpires      int                    `json:"lease_expires"`
	PerWorkerCounters map[int]WorkerCounters `json:"per_worker,omitempty"`

	// Job-lifecycle counters (nasd daemon traces; zero for one-shot runs).
	JobSubmits     int `json:"job_submits,omitempty"`
	JobStarts      int `json:"job_starts,omitempty"`
	JobCheckpoints int `json:"job_checkpoints,omitempty"`
	JobFinishes    int `json:"job_finishes,omitempty"`
	JobEvicts      int `json:"job_evicts,omitempty"`

	// Span / SLO counters and the tail latencies the SLO watch-loop
	// compares against its targets. Quantiles are computed over the most
	// recent histWindow samples, so a recovering system's p99 decays
	// instead of being anchored by ancient stragglers.
	Spans               int     `json:"spans,omitempty"`
	SLOBreaches         int     `json:"slo_breaches,omitempty"`
	EvalP50Seconds      float64 `json:"eval_p50_seconds,omitempty"`
	EvalP99Seconds      float64 `json:"eval_p99_seconds,omitempty"`
	QueueWaitP99Seconds float64 `json:"queue_wait_p99_seconds,omitempty"`
	// HeartbeatMissRate is heartbeat misses per elapsed minute.
	HeartbeatMissRate float64 `json:"heartbeat_miss_rate,omitempty"`
}

// Snapshot returns the current aggregate state.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		ElapsedSeconds:    m.lastT.Seconds(),
		Workers:           m.workers,
		Evals:             m.evals,
		Successes:         m.successes,
		Errors:            m.errors,
		Retries:           m.retries,
		InFlight:          len(m.inflight),
		RewardMA:          m.ma.Value(),
		LastReward:        m.ma.Last(),
		Epochs:            m.epochs,
		Rounds:            m.rounds,
		Checkpoints:       m.checkpoints,
		UniqueHigh:        len(m.high),
		WorkerSpawns:      m.spawns,
		WorkerCrashes:     m.crashes,
		WorkerRestarts:    m.restarts,
		HeartbeatMisses:   m.hbMisses,
		Speculations:      m.specs,
		SpeculativeWins:   m.specWins,
		WorkerConnects:    m.connects,
		WorkerDisconnects: m.disconnects,
		LeaseExpires:      m.leaseExps,
		JobSubmits:        m.jobSubmits,
		JobStarts:         m.jobStarts,
		JobCheckpoints:    m.jobCheckpoints,
		JobFinishes:       m.jobFinishes,
		JobEvicts:         m.jobEvicts,
		Spans:             m.spans,
		SLOBreaches:       m.sloBreaches,
	}
	s.EvalP50Seconds = m.evalLat.quantile(0.50)
	s.EvalP99Seconds = m.evalLat.quantile(0.99)
	s.QueueWaitP99Seconds = m.queueWait.quantile(0.99)
	if m.lastT > 0 {
		s.HeartbeatMissRate = float64(m.hbMisses) / m.lastT.Minutes()
	}
	if !math.IsInf(m.best, -1) {
		s.BestReward = m.best
	}
	busy := m.busy
	for _, start := range m.inflight {
		if m.lastT > start {
			busy += m.lastT - start
		}
	}
	s.BusySeconds = busy.Seconds()
	if m.lastT > 0 {
		s.EvalsPerSec = float64(m.evals) / m.lastT.Seconds()
		s.UtilizationAUC = busy.Seconds() / (float64(m.workers) * m.lastT.Seconds())
	}
	if len(m.perWorker) > 0 {
		s.PerWorkerCounters = make(map[int]WorkerCounters, len(m.perWorker))
		for id, w := range m.perWorker {
			s.PerWorkerCounters[id] = *w
		}
	}
	return s
}
