// Package obs is the live observability layer: a lock-cheap, typed event
// bus for a running architecture search, plus a streaming metrics
// aggregator that computes the paper's operational quantities (moving-
// average reward, node-utilization AUC, unique high performers) while the
// search runs instead of post-hoc from a finished SearchResult. The design
// follows the DeepHyper/Balsam pattern of streaming per-job telemetry: the
// runners, the worker pool, the checkpointer, and nn.Train each emit events
// into a Recorder, and sinks (in-memory ring, JSONL file, live metrics,
// /metrics + pprof HTTP) consume them without the producers knowing who is
// listening.
//
// The package depends only on the standard library and the leaf
// internal/metrics package (the shared moving-average/AUC math), so every
// layer of the stack — from the public API down to the training loop — can
// import it without cycles.
package obs

import (
	"fmt"
	"time"
)

// Kind identifies the event type.
type Kind uint8

// The event vocabulary. Producers throughout the stack emit these; sinks
// switch on them. Unknown kinds must be ignored by consumers, so the
// vocabulary can grow without breaking stored JSONL traces.
const (
	// KindSearchStart opens a run (Method, Worker = worker count).
	KindSearchStart Kind = iota + 1
	// KindSearchFinish closes a run (Eval = completed evaluations).
	KindSearchFinish
	// KindEvalStart marks an evaluation dispatched (Eval, Worker, Arch).
	KindEvalStart
	// KindEvalFinish marks a successful evaluation (Eval, Reward, Seconds).
	KindEvalFinish
	// KindEvalError marks a failed evaluation (Eval, Err, Seconds).
	KindEvalError
	// KindEvalRetry marks a transient failure about to be retried
	// (Eval, Attempt, Err).
	KindEvalRetry
	// KindEpoch is one training-epoch tick from nn.Train (Eval, Epoch, Loss).
	KindEpoch
	// KindRound closes one synchronous PPO batch round (Round, Reward =
	// round mean, Eval = evaluations so far).
	KindRound
	// KindCheckpoint marks a successful checkpoint write (Eval = results
	// persisted).
	KindCheckpoint
	// KindWorkerSpawn marks a worker process ready (Worker, Attempt =
	// incarnation).
	KindWorkerSpawn
	// KindWorkerCrash marks a worker death (Worker, Err).
	KindWorkerCrash
	// KindWorkerRestart marks a respawn decision (Worker, Attempt).
	KindWorkerRestart
	// KindHeartbeatMiss marks a worker killed for going silent (Worker).
	KindHeartbeatMiss
	// KindSpecLaunch marks a speculative duplicate dispatch (Eval = pool job
	// id).
	KindSpecLaunch
	// KindSpecWin marks an evaluation decided by its speculative copy
	// (Eval = pool job id).
	KindSpecWin
	// KindTraceHeader is the run-metadata record emitted as the first line
	// of a `nasrun -trace` log (Method, Seed, Worker = worker count, Schema,
	// Version = podnas version). Replay tooling uses it to size its
	// aggregates and to reject traces written by a newer schema than it
	// understands; consumers of headerless traces (written before this
	// record existed) fall back to the search_start event.
	KindTraceHeader
	// KindWorkerConnect marks a remote worker connection handshaken and
	// leased (Worker, Attempt = lease epoch, Ident = "addr#lease").
	KindWorkerConnect
	// KindWorkerDisconnect marks a remote worker connection lost — peer
	// death, network drop, or a heartbeat kill of a silent link (Worker,
	// Ident, Err).
	KindWorkerDisconnect
	// KindLeaseExpire marks a slot lease retired while an evaluation was
	// still claimed under it (Worker, Eval = pool job id, Ident): the job is
	// re-dispatched under a fresh lease and any result the zombie still
	// delivers is fenced off by its stale lease ID.
	KindLeaseExpire
	// KindJobSubmit marks a search job admitted into the nasd queue (Job,
	// Method, Eval = requested evaluation budget).
	KindJobSubmit
	// KindJobStart marks a job leaving the queue for a run slot (Job,
	// Attempt = run attempt, Eval = evaluations already completed when the
	// start is a resume from a checkpoint).
	KindJobStart
	// KindJobCheckpoint marks a job's durable state committed — manifest
	// and per-job checkpoint on disk (Job, Eval = results persisted).
	KindJobCheckpoint
	// KindJobFinish marks a job reaching a terminal or parked state (Job,
	// Method = final state name, Eval = completed evaluations, Reward =
	// best reward for done jobs, Err for failures).
	KindJobFinish
	// KindJobEvict marks the watchdog evicting a running job — deadline
	// exceeded or drain — before its budget completed (Job, Attempt,
	// Err = eviction reason). The job retries, pauses with its checkpoint,
	// or fails, which the subsequent job_start/job_finish records.
	KindJobEvict
	// KindSpan is one completed trace span (Name, Trace, Span, Parent,
	// Seconds = duration, T = end offset, so start = T − Seconds). Span
	// identities are derived deterministically from existing identities
	// (job ID × eval × lease × epoch) by internal/obs/span, so a replayed
	// trace reconstructs the identical tree. Spans produced in a worker
	// process travel back over the wire as span frames and are re-recorded
	// by the driver, which is how one evaluation's tree stitches across
	// processes.
	KindSpan
	// KindSLOBreach marks an SLO watch-loop target crossing its threshold
	// (Name = target name, Seconds = observed value, Ident = pprof bundle
	// path prefix, Err = capture error if the bundle is partial). Emitted
	// exactly once per breach window by internal/obs/slo alongside the
	// CPU+heap pprof capture.
	KindSLOBreach
)

// SchemaVersion is the trace-format generation stamped into every
// KindTraceHeader record. Bump it when an existing field changes meaning or
// an event's semantics shift — NOT when new kinds or fields are added, since
// consumers already ignore unknown kinds and fields. Readers must reject
// traces whose header carries a larger value.
const SchemaVersion = 1

// NewHeader builds the trace-header event for a run: the record `nasrun
// -trace` writes first so replay tools know the method, seed, evaluation
// slot count, and writer versions without scanning the stream.
func NewHeader(method string, seed uint64, workers int, version string) Event {
	return Event{
		Kind:    KindTraceHeader,
		Method:  method,
		Seed:    seed,
		Worker:  workers,
		Schema:  SchemaVersion,
		Version: version,
	}
}

var kindNames = [...]string{
	KindSearchStart:      "search_start",
	KindSearchFinish:     "search_finish",
	KindEvalStart:        "eval_start",
	KindEvalFinish:       "eval_finish",
	KindEvalError:        "eval_error",
	KindEvalRetry:        "eval_retry",
	KindEpoch:            "epoch",
	KindRound:            "round",
	KindCheckpoint:       "checkpoint",
	KindWorkerSpawn:      "worker_spawn",
	KindWorkerCrash:      "worker_crash",
	KindWorkerRestart:    "worker_restart",
	KindHeartbeatMiss:    "heartbeat_miss",
	KindSpecLaunch:       "spec_launch",
	KindSpecWin:          "spec_win",
	KindTraceHeader:      "trace_header",
	KindWorkerConnect:    "worker_connect",
	KindWorkerDisconnect: "worker_disconnect",
	KindLeaseExpire:      "lease_expire",
	KindJobSubmit:        "job_submit",
	KindJobStart:         "job_start",
	KindJobCheckpoint:    "job_checkpoint",
	KindJobFinish:        "job_finish",
	KindJobEvict:         "job_evict",
	KindSpan:             "span",
	KindSLOBreach:        "slo_breach",
}

// String returns the stable snake_case name used in JSONL traces.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalJSON encodes the kind as its stable string name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind from its string name. Unknown names decode to
// 0 (no error), so old readers tolerate traces from newer writers.
func (k *Kind) UnmarshalJSON(b []byte) error {
	if len(b) < 2 || b[0] != '"' || b[len(b)-1] != '"' {
		return fmt.Errorf("obs: kind must be a JSON string, got %s", b)
	}
	name := string(b[1 : len(b)-1])
	for i, n := range kindNames {
		if n == name {
			*k = Kind(i)
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one telemetry sample. Which fields are meaningful depends on
// Kind (see the kind constants); unused numeric fields are zero. T is the
// monotonic offset since the recorder's start, stamped by the outermost
// sink when the producer leaves it zero, so every sink fed through the same
// Multi sees identical timestamps.
type Event struct {
	T       time.Duration `json:"t"`    // monotonic offset, nanoseconds
	Kind    Kind          `json:"kind"` // snake_case name in JSON
	Eval    int           `json:"eval"`
	Worker  int           `json:"worker"`
	Epoch   int           `json:"epoch"`
	Round   int           `json:"round"`
	Attempt int           `json:"attempt"`
	Reward  float64       `json:"reward"`
	Loss    float64       `json:"loss"`
	Seconds float64       `json:"seconds"` // evaluation duration
	Method  string        `json:"method,omitempty"`
	Arch    string        `json:"arch,omitempty"` // canonical architecture key
	Err     string        `json:"err,omitempty"`
	// Ident is the slot's transport identity ("local:<pid>" or
	// "remote:<addr>#<lease>") on worker connect/disconnect/lease events.
	Ident string `json:"ident,omitempty"`
	// Job is the nasd job ID on job-lifecycle events (job_submit/start/
	// checkpoint/finish/evict), and on every event a job's per-run recorder
	// stamps, so one daemon-wide trace still attributes per-job streams.
	Job string `json:"job,omitempty"`

	// Span fields (KindSpan; Name also labels KindSLOBreach's target).
	// Trace/Span/Parent are 16-hex-digit IDs kept as strings so JSON
	// round-trips never lose uint64 precision to float64 decoding.
	Name   string `json:"name,omitempty"`   // span operation / SLO target name
	Trace  string `json:"trace,omitempty"`  // trace ID
	Span   string `json:"span,omitempty"`   // span ID
	Parent string `json:"parent,omitempty"` // parent span ID ("" = root)

	// Trace-header fields (KindTraceHeader only).
	Seed    uint64 `json:"seed,omitempty"`    // search seed
	Schema  int    `json:"schema,omitempty"`  // trace schema generation
	Version string `json:"version,omitempty"` // podnas version of the writer
}
