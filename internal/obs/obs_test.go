package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"
)

func TestKindJSONRoundTrip(t *testing.T) {
	for k := KindSearchStart; k <= KindJobEvict; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Errorf("kind %v round-tripped to %v", k, back)
		}
	}
	var unknown Kind
	if err := json.Unmarshal([]byte(`"from_the_future"`), &unknown); err != nil {
		t.Fatalf("unknown kind must not error: %v", err)
	}
	if unknown != 0 {
		t.Errorf("unknown kind decoded to %v, want 0", unknown)
	}
	if err := json.Unmarshal([]byte(`7`), &unknown); err == nil {
		t.Error("numeric kind should be rejected")
	}
}

func TestRingKeepsNewest(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Record(Event{Kind: KindEvalFinish, Eval: i})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Eval != 6+i {
			t.Errorf("slot %d holds eval %d, want %d", i, e.Eval, 6+i)
		}
		if e.T <= 0 {
			t.Errorf("event %d unstamped", i)
		}
	}
	if r.Total() != 10 {
		t.Errorf("total %d, want 10", r.Total())
	}
}

func TestRingPartialFill(t *testing.T) {
	r := NewRing(8)
	r.Record(Event{Kind: KindEvalStart, Eval: 0})
	r.Record(Event{Kind: KindEvalFinish, Eval: 0})
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != KindEvalStart || evs[1].Kind != KindEvalFinish {
		t.Fatalf("unexpected events %+v", evs)
	}
	if evs[1].T < evs[0].T {
		t.Error("timestamps must be monotonic")
	}
}

func TestJSONLWritesParseableLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Record(Event{Kind: KindEvalStart, Eval: 1, Arch: "1-2-3"})
	j.Record(Event{Kind: KindEvalFinish, Eval: 1, Reward: 0.9, Seconds: 0.25})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not JSON: %v (%s)", err, sc.Text())
		}
		kinds = append(kinds, m["kind"].(string))
	}
	if len(kinds) != 2 || kinds[0] != "eval_start" || kinds[1] != "eval_finish" {
		t.Fatalf("kinds %v", kinds)
	}
}

func TestCreateJSONLFile(t *testing.T) {
	path := t.TempDir() + "/trace.jsonl"
	j, err := CreateJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Record(Event{Kind: KindSearchStart, Method: "RS"})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	if err := json.Unmarshal(bytes.TrimSpace(data), &e); err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindSearchStart || e.Method != "RS" {
		t.Errorf("decoded %+v", e)
	}
}

// errWriter fails after n successful writes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, fmt.Errorf("disk full")
	}
	w.n--
	return len(p), nil
}

func TestJSONLStickyError(t *testing.T) {
	j := NewJSONL(&errWriter{n: 0})
	for i := 0; i < 10000; i++ { // overflow the bufio buffer
		j.Record(Event{Kind: KindEpoch, Eval: i})
	}
	if j.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	// Recording after the error must stay a safe no-op.
	j.Record(Event{Kind: KindEpoch})
	if err := j.Flush(); err == nil {
		t.Error("flush should report the sticky error")
	}
}

func TestMultiStampsOnceAndFansOut(t *testing.T) {
	r1, r2 := NewRing(8), NewRing(8)
	m := NewMulti(r1, nil, r2)
	m.Record(Event{Kind: KindEvalStart, Eval: 3})
	e1, e2 := r1.Events(), r2.Events()
	if len(e1) != 1 || len(e2) != 1 {
		t.Fatalf("fan-out %d/%d", len(e1), len(e2))
	}
	if e1[0].T != e2[0].T {
		t.Errorf("sinks disagree on timestamp: %v vs %v", e1[0].T, e2[0].T)
	}
	if e1[0].T == 0 {
		t.Error("multi did not stamp")
	}
}

func TestContextHelpers(t *testing.T) {
	if _, ok := RecorderFrom(context.Background()); ok {
		t.Error("empty context should carry no recorder")
	}
	if _, ok := RecorderFrom(nil); ok { //nolint:staticcheck // nil-safety is part of the contract
		t.Error("nil context should carry no recorder")
	}
	r := NewRing(4)
	ctx := WithEval(context.Background(), r, 7)
	got, ok := RecorderFrom(ctx)
	if !ok || got != Recorder(r) {
		t.Fatal("recorder not recovered from context")
	}
	idx, ok := EvalFrom(ctx)
	if !ok || idx != 7 {
		t.Fatalf("eval index %d/%v", idx, ok)
	}
}

func TestMetricsStreamingMatchesBatch(t *testing.T) {
	// Synthesize a deterministic 2-worker schedule with overlapping
	// evaluations, then check the streaming aggregates against direct batch
	// computations over the same event stream — the same cross-check the
	// root package runs against a real search and hpcsim's offline AUC.
	m := NewMetricsOpts(2, MetricsOptions{Window: 3, HighThreshold: 0.5})
	type span struct {
		eval   int
		start  time.Duration
		finish time.Duration
		reward float64
		arch   string
		fail   bool
	}
	spans := []span{
		{0, 1 * time.Millisecond, 5 * time.Millisecond, 0.30, "a", false},
		{1, 2 * time.Millisecond, 9 * time.Millisecond, 0.70, "b", false},
		{2, 5 * time.Millisecond, 12 * time.Millisecond, 0, "c", true},
		{3, 9 * time.Millisecond, 14 * time.Millisecond, 0.80, "d", false},
		{4, 12 * time.Millisecond, 20 * time.Millisecond, 0.80, "d", false},
		{5, 14 * time.Millisecond, 21 * time.Millisecond, 0.10, "e", false},
	}
	type stamped struct {
		t time.Duration
		e Event
	}
	var timeline []stamped
	for _, s := range spans {
		timeline = append(timeline, stamped{s.start, Event{T: s.start, Kind: KindEvalStart, Eval: s.eval, Arch: s.arch}})
		fin := Event{T: s.finish, Kind: KindEvalFinish, Eval: s.eval, Reward: s.reward, Arch: s.arch}
		if s.fail {
			fin = Event{T: s.finish, Kind: KindEvalError, Eval: s.eval, Err: "boom"}
		}
		timeline = append(timeline, stamped{s.finish, fin})
	}
	// Deliver in time order, as a live run would.
	for i := 0; i < len(timeline); i++ {
		for j := i + 1; j < len(timeline); j++ {
			if timeline[j].t < timeline[i].t {
				timeline[i], timeline[j] = timeline[j], timeline[i]
			}
		}
	}
	for _, s := range timeline {
		m.Record(s.e)
	}
	snap := m.Snapshot()

	if snap.Evals != 6 || snap.Successes != 5 || snap.Errors != 1 {
		t.Fatalf("counts %+v", snap)
	}
	// Batch busy time: sum of spans, the interval accounting hpcsim's
	// finalizeWithBusy uses before normalizing by nodes × wall time.
	var busy time.Duration
	for _, s := range spans {
		busy += s.finish - s.start
	}
	last := 21 * time.Millisecond
	wantAUC := busy.Seconds() / (2 * last.Seconds())
	if diff := snap.UtilizationAUC - wantAUC; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("live AUC %.15f vs batch %.15f", snap.UtilizationAUC, wantAUC)
	}
	// Batch moving average, window 3, over successful rewards in completion
	// order: 0.30, 0.70, 0.80, 0.80, 0.10 -> mean of the last 3.
	want := (0.80 + 0.80 + 0.10) / 3
	if diff := snap.RewardMA - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("reward MA %.15f vs %.15f", snap.RewardMA, want)
	}
	if snap.BestReward != 0.80 {
		t.Errorf("best %v", snap.BestReward)
	}
	// Unique high: rewards > 0.5 with distinct arch keys: "b" and "d".
	if snap.UniqueHigh != 2 {
		t.Errorf("unique high %d, want 2", snap.UniqueHigh)
	}
	if snap.ElapsedSeconds != last.Seconds() {
		t.Errorf("elapsed %v", snap.ElapsedSeconds)
	}
	if snap.EvalsPerSec <= 0 {
		t.Errorf("evals/sec %v", snap.EvalsPerSec)
	}
}

func TestMetricsInFlightUtilization(t *testing.T) {
	m := NewMetrics(1)
	m.Record(Event{T: 1 * time.Millisecond, Kind: KindEvalStart, Eval: 0})
	m.Record(Event{T: 3 * time.Millisecond, Kind: KindEpoch, Eval: 0, Epoch: 0})
	snap := m.Snapshot()
	if snap.InFlight != 1 {
		t.Fatalf("in flight %d", snap.InFlight)
	}
	// Busy 1ms..3ms of a 3ms window.
	want := 2.0 / 3.0
	if diff := snap.UtilizationAUC - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("in-flight AUC %.15f, want %.15f", snap.UtilizationAUC, want)
	}
	if snap.Epochs != 1 {
		t.Errorf("epochs %d", snap.Epochs)
	}
}

// TestMetricsFinishClosesInflight is the regression test for truncated-run
// utilization: an evaluation still in flight at search_finish was busy until
// the finish event, so it must be folded into the committed busy time (the
// same interval hpcsim's trapezoidal accounting would integrate) and the
// in-flight set must settle to empty.
func TestMetricsFinishClosesInflight(t *testing.T) {
	m := NewMetrics(2)
	m.Record(Event{T: 1 * time.Millisecond, Kind: KindEvalStart, Eval: 0})
	m.Record(Event{T: 2 * time.Millisecond, Kind: KindEvalStart, Eval: 1})
	m.Record(Event{T: 5 * time.Millisecond, Kind: KindEvalFinish, Eval: 0, Reward: 0.4})
	// Eval 1 never finishes: the run is cancelled and closes at t=8ms.
	m.Record(Event{T: 8 * time.Millisecond, Kind: KindSearchFinish, Eval: 1})
	snap := m.Snapshot()
	if snap.InFlight != 0 {
		t.Fatalf("in flight after finish %d, want 0", snap.InFlight)
	}
	// Busy spans: eval 0 over [1,5]ms, eval 1 over [2,8]ms — the interval
	// set hpcsim would integrate — over 2 slots × 8ms elapsed.
	wantBusy := (4 + 6) * time.Millisecond
	if snap.BusySeconds != wantBusy.Seconds() {
		t.Errorf("busy %v, want %v", snap.BusySeconds, wantBusy.Seconds())
	}
	wantAUC := wantBusy.Seconds() / (2 * (8 * time.Millisecond).Seconds())
	if diff := snap.UtilizationAUC - wantAUC; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("truncated-run AUC %.15f, want %.15f", snap.UtilizationAUC, wantAUC)
	}
	// The interrupted evaluation is not a completion: only its busy time
	// counts.
	if snap.Evals != 1 || snap.Successes != 1 {
		t.Errorf("counts %+v", snap)
	}
}

// TestHeaderEvent pins the trace-header record shape and its JSON names,
// which the replay subsystem and external tooling key on.
func TestHeaderEvent(t *testing.T) {
	h := NewHeader("RS", 42, 4, "0.4.0")
	if h.Kind != KindTraceHeader || h.Schema != SchemaVersion {
		t.Fatalf("header %+v", h)
	}
	b, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "trace_header" || m["method"] != "RS" ||
		m["seed"] != float64(42) || m["worker"] != float64(4) ||
		m["schema"] != float64(SchemaVersion) || m["version"] != "0.4.0" {
		t.Errorf("header JSON %v", m)
	}
	// Metrics must tolerate (and ignore) the header without disturbing
	// aggregates.
	mt := NewMetrics(2)
	mt.Record(h)
	if s := mt.Snapshot(); s.Evals != 0 || s.InFlight != 0 {
		t.Errorf("header perturbed metrics: %+v", s)
	}
}

func TestMetricsWorkerCounters(t *testing.T) {
	m := NewMetrics(2)
	m.Record(Event{Kind: KindWorkerSpawn, Worker: 0})
	m.Record(Event{Kind: KindWorkerSpawn, Worker: 1})
	m.Record(Event{Kind: KindWorkerCrash, Worker: 1, Err: "signal: killed"})
	m.Record(Event{Kind: KindWorkerRestart, Worker: 1, Attempt: 1})
	m.Record(Event{Kind: KindWorkerSpawn, Worker: 1})
	m.Record(Event{Kind: KindHeartbeatMiss, Worker: 0})
	m.Record(Event{Kind: KindSpecLaunch, Eval: 9})
	m.Record(Event{Kind: KindSpecWin, Eval: 9})
	m.Record(Event{Kind: KindCheckpoint, Eval: 4})
	snap := m.Snapshot()
	if snap.WorkerSpawns != 3 || snap.WorkerCrashes != 1 || snap.WorkerRestarts != 1 {
		t.Errorf("supervision counters %+v", snap)
	}
	if snap.HeartbeatMisses != 1 || snap.Speculations != 1 || snap.SpeculativeWins != 1 {
		t.Errorf("liveness counters %+v", snap)
	}
	if snap.Checkpoints != 1 {
		t.Errorf("checkpoints %d", snap.Checkpoints)
	}
	pw := snap.PerWorkerCounters
	if pw[1].Spawns != 2 || pw[1].Crashes != 1 || pw[1].Restarts != 1 || pw[0].HeartbeatMisses != 1 {
		t.Errorf("per-worker %+v", pw)
	}
}

func TestMetricsSnapshotJSONSafe(t *testing.T) {
	// A fresh aggregator (best = -Inf internally) must still produce a
	// JSON-encodable snapshot, as its struct tags promise.
	m := NewMetrics(1)
	if _, err := json.Marshal(m.Snapshot()); err != nil {
		t.Fatalf("empty snapshot not JSON safe: %v", err)
	}
	m.Record(Event{Kind: KindEvalStart, Eval: 0})
	m.Record(Event{Kind: KindEvalFinish, Eval: 0, Reward: 0.5})
	if _, err := json.Marshal(m.Snapshot()); err != nil {
		t.Fatalf("snapshot not JSON safe: %v", err)
	}
}

func TestRecordersAreRaceFree(t *testing.T) {
	ring := NewRing(64)
	mtr := NewMetrics(4)
	jl := NewJSONL(io.Discard)
	multi := NewMulti(ring, mtr, jl)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				idx := w*1000 + i
				multi.Record(Event{Kind: KindEvalStart, Eval: idx, Worker: w})
				multi.Record(Event{Kind: KindEvalFinish, Eval: idx, Worker: w, Reward: 0.5})
				_ = mtr.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if got := mtr.Snapshot().Evals; got != 8*200 {
		t.Errorf("evals %d, want %d", got, 8*200)
	}
	if ring.Total() != 2*8*200 {
		t.Errorf("ring total %d", ring.Total())
	}
	if err := jl.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestNopRecorder(t *testing.T) {
	var r Recorder = Nop{}
	r.Record(Event{Kind: KindEvalStart}) // must not panic
}
