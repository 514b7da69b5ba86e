package search

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"podnas/internal/arch"
	"podnas/internal/fsatomic"
	"podnas/internal/tensor"
)

// proposeN drains n proposals from a searcher (without reporting).
func proposeN(s Searcher, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s.Propose().Key()
	}
	return out
}

// TestAESnapshotRoundTrip: a restored AE produces the exact same future
// proposal stream as the original, including population and RNG position.
func TestAESnapshotRoundTrip(t *testing.T) {
	s := toySpace()
	ae, _ := NewAgingEvolution(s, 8, 3, 31)
	for i := 0; i < 20; i++ {
		a := ae.Propose()
		ae.Report(a, float64(i)/20)
	}
	st, err := ae.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "AE" {
		t.Fatalf("kind %q", st.Kind)
	}
	ae2, _ := NewAgingEvolution(s, 0, 0, 999) // different config and seed
	if err := ae2.Restore(st); err != nil {
		t.Fatal(err)
	}
	if ae2.Population != 8 || ae2.Sample != 3 {
		t.Errorf("restored config P=%d S=%d", ae2.Population, ae2.Sample)
	}
	want := proposeN(ae, 15)
	got := proposeN(ae2, 15)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("proposal %d diverges after restore: %s vs %s", i, want[i], got[i])
		}
	}
}

// TestRSSnapshotRoundTrip: restoring RS resumes its RNG stream exactly.
func TestRSSnapshotRoundTrip(t *testing.T) {
	s := toySpace()
	rs, _ := NewRandomSearch(s, 32)
	proposeN(rs, 7)
	st, err := rs.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := NewRandomSearch(s, 0)
	if err := rs2.Restore(st); err != nil {
		t.Fatal(err)
	}
	want, got := proposeN(rs, 10), proposeN(rs2, 10)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("RS stream diverges at %d", i)
		}
	}
}

// TestPPOSnapshotRoundTrip: a restored agent proposes the same batches.
func TestPPOSnapshotRoundTrip(t *testing.T) {
	s := toySpace()
	a1, _ := NewPPOAgent(s, 33)
	eval := &toyEvaluator{space: s}
	for round := 0; round < 5; round++ {
		batch := a1.ProposeBatch(6)
		rewards := make([]float64, len(batch))
		for i, ar := range batch {
			rewards[i], _ = eval.Evaluate(ar, 0)
		}
		g, _ := a1.Gradients(batch, rewards)
		a1.ApplyGradients(g)
	}
	st, err := a1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a2, _ := NewPPOAgent(s, 777)
	if err := a2.Restore(st); err != nil {
		t.Fatal(err)
	}
	b1, b2 := a1.ProposeBatch(8), a2.ProposeBatch(8)
	for i := range b1 {
		if b1[i].Key() != b2[i].Key() {
			t.Fatalf("PPO proposals diverge at %d after restore", i)
		}
	}
}

// TestSnapshotKindMismatch: snapshots must not cross algorithm boundaries.
func TestSnapshotKindMismatch(t *testing.T) {
	s := toySpace()
	ae, _ := NewAgingEvolution(s, 5, 2, 34)
	ne, _ := NewNonAgingEvolution(s, 5, 2, 34)
	rs, _ := NewRandomSearch(s, 34)
	agent, _ := NewPPOAgent(s, 34)

	aeSt, _ := ae.Snapshot()
	neSt, _ := ne.Snapshot()
	rsSt, _ := rs.Snapshot()
	ppoSt, _ := agent.Snapshot()

	if err := ae.Restore(neSt); err == nil {
		t.Error("AE accepted a NonAgingEvo snapshot")
	}
	if err := ne.Restore(aeSt); err == nil {
		t.Error("NonAgingEvo accepted an AE snapshot")
	}
	if err := rs.Restore(aeSt); err == nil {
		t.Error("RS accepted an AE snapshot")
	}
	if err := agent.Restore(rsSt); err == nil {
		t.Error("PPO accepted an RS snapshot")
	}
	if err := ae.Restore(ppoSt); err == nil {
		t.Error("AE accepted a PPO snapshot")
	}
}

// TestRunAsyncCheckpointResume is the core resume guarantee: a run cancelled
// partway and resumed from its checkpoint finishes with the exact same
// evaluation budget, and at Workers == 1 reproduces the uninterrupted
// trajectory result-for-result.
func TestRunAsyncCheckpointResume(t *testing.T) {
	s := toySpace()
	const evals = 80

	// Reference: uninterrupted run.
	aeRef, _ := NewAgingEvolution(s, 10, 3, 41)
	ref, err := RunAsync(aeRef, &toyEvaluator{space: s}, RunAsyncOptions{Workers: 1, MaxEvals: evals, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: cancel after ~30 results, checkpointing every 10.
	path := filepath.Join(t.TempDir(), "ck.json")
	ck := &Checkpointer{Path: path, Every: 10}
	ae1, _ := NewAgingEvolution(s, 10, 3, 41)
	ctx, cancel := context.WithCancel(context.Background())
	gate := &cancelAfterEvaluator{inner: &toyEvaluator{space: s}, after: 30, cancel: cancel}
	partial, err := RunAsyncCtx(ctx, ae1, gate, RunAsyncOptions{Workers: 1, MaxEvals: evals, Seed: 41, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if len(partial) >= evals {
		t.Fatalf("interruption did not bite: %d results", len(partial))
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != "AE" {
		t.Fatalf("checkpoint kind %q", loaded.Kind)
	}
	if loaded.NumResults() != len(partial) {
		t.Fatalf("final checkpoint stores %d results, run returned %d", loaded.NumResults(), len(partial))
	}

	// Resume into a fresh searcher; finish the budget.
	ae2, _ := NewAgingEvolution(s, 10, 3, 999)
	rest, err := RunAsync(ae2, &toyEvaluator{space: s}, RunAsyncOptions{Workers: 1, MaxEvals: evals, Seed: 41, Resume: loaded})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != evals {
		t.Fatalf("resumed run finished with %d results, want the full budget %d", len(rest), evals)
	}
	for i := range ref {
		if ref[i].Index != rest[i].Index || ref[i].Arch.Key() != rest[i].Arch.Key() || ref[i].Reward != rest[i].Reward {
			t.Fatalf("resumed trajectory diverges at %d: %+v vs %+v", i, ref[i], rest[i])
		}
	}
}

// cancelAfterEvaluator cancels the run context after n evaluations complete.
// It implements ContextEvaluator (ignoring the context) so the runner takes
// the direct evaluation path: the evaluation during which cancel fires is
// still recorded, which keeps the interruption point deterministic.
type cancelAfterEvaluator struct {
	inner  *toyEvaluator
	after  int
	cancel context.CancelFunc
}

func (e *cancelAfterEvaluator) Evaluate(a arch.Arch, seed uint64) (float64, error) {
	r, err := e.inner.Evaluate(a, seed)
	e.inner.mu.Lock()
	done := e.inner.calls >= e.after
	e.inner.mu.Unlock()
	if done {
		e.cancel()
	}
	return r, err
}

func (e *cancelAfterEvaluator) EvaluateCtx(_ context.Context, a arch.Arch, seed uint64) (float64, error) {
	return e.Evaluate(a, seed)
}

// TestRunAsyncResumeAlreadyComplete: resuming a finished checkpoint is a
// no-op that returns the stored results.
func TestRunAsyncResumeAlreadyComplete(t *testing.T) {
	s := toySpace()
	path := filepath.Join(t.TempDir(), "ck.json")
	ae, _ := NewAgingEvolution(s, 10, 3, 42)
	res, err := RunAsync(ae, &toyEvaluator{space: s}, RunAsyncOptions{
		Workers: 2, MaxEvals: 25, Seed: 42, Checkpoint: &Checkpointer{Path: path},
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ae2, _ := NewAgingEvolution(s, 10, 3, 42)
	again, err := RunAsync(ae2, &toyEvaluator{space: s}, RunAsyncOptions{
		Workers: 2, MaxEvals: 25, Seed: 42, Resume: loaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(res) {
		t.Fatalf("no-op resume returned %d results, want %d", len(again), len(res))
	}
}

// TestRunRLCheckpointResume: an RL run checkpointed per round resumes with
// whole rounds only and finishes the configured batch count.
func TestRunRLCheckpointResume(t *testing.T) {
	s := toySpace()
	path := filepath.Join(t.TempDir(), "rl.json")
	opts := RunRLOptions{Agents: 2, WorkersPerAgent: 3, Batches: 12, Seed: 51,
		Checkpoint: &Checkpointer{Path: path, Every: 1}}

	// Reference uninterrupted run.
	ref, err := RunRL(s, &toyEvaluator{space: s}, RunRLOptions{Agents: 2, WorkersPerAgent: 3, Batches: 12, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted: cancel after round 5 via a context watcher on result count.
	ctx, cancel := context.WithCancel(context.Background())
	gate := &cancelAfterEvaluator{inner: &toyEvaluator{space: s}, after: 5 * 6, cancel: cancel}
	partial, err := RunRLCtx(ctx, s, gate, opts)
	if err != nil {
		t.Fatal(err)
	}
	roundSize := 6
	if len(partial)%roundSize != 0 {
		t.Fatalf("partial RL run returned %d results — not a whole number of rounds", len(partial))
	}
	if len(partial) == 0 || len(partial) >= 12*roundSize {
		t.Fatalf("interruption did not bite: %d results", len(partial))
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != "RL" {
		t.Fatalf("kind %q", loaded.Kind)
	}
	if loaded.NumResults()%roundSize != 0 {
		t.Fatalf("checkpoint stores %d results — not whole rounds", loaded.NumResults())
	}

	rest, err := RunRL(s, &toyEvaluator{space: s}, RunRLOptions{
		Agents: 2, WorkersPerAgent: 3, Batches: 12, Seed: 51, Resume: loaded,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 12*roundSize {
		t.Fatalf("resumed RL run has %d results, want %d", len(rest), 12*roundSize)
	}
	for i := range ref {
		if ref[i].Arch.Key() != rest[i].Arch.Key() || ref[i].Reward != rest[i].Reward {
			t.Fatalf("resumed RL trajectory diverges at %d", i)
		}
	}
}

// TestRLResumeValidation: RL checkpoints reject async runs and mismatched
// agent counts.
func TestRLResumeValidation(t *testing.T) {
	s := toySpace()
	path := filepath.Join(t.TempDir(), "rl.json")
	_, err := RunRL(s, &toyEvaluator{space: s}, RunRLOptions{
		Agents: 2, WorkersPerAgent: 2, Batches: 2, Seed: 52,
		Checkpoint: &Checkpointer{Path: path, Every: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong agent count.
	if _, err := RunRL(s, &toyEvaluator{space: s}, RunRLOptions{
		Agents: 3, WorkersPerAgent: 2, Batches: 4, Seed: 52, Resume: loaded,
	}); err == nil {
		t.Error("agent-count mismatch accepted")
	}
	// RL checkpoint into an async run.
	ae, _ := NewAgingEvolution(s, 5, 2, 52)
	if _, err := RunAsync(ae, &toyEvaluator{space: s}, RunAsyncOptions{
		Workers: 1, MaxEvals: 10, Seed: 52, Resume: loaded,
	}); err == nil {
		t.Error("RL checkpoint accepted by async runner")
	}
}

// TestLoadCheckpointMissing: a missing checkpoint file is a load error, not
// a silent fresh start.
func TestLoadCheckpointMissing(t *testing.T) {
	if _, err := LoadCheckpoint(filepath.Join(t.TempDir(), "nope.json")); !os.IsNotExist(err) {
		t.Errorf("want IsNotExist, got %v", err)
	}
}

// TestCheckpointClampsNonFiniteRewards: NaN rewards cannot survive a JSON
// round trip, so the encoder clamps them to the divergence sentinel.
func TestCheckpointClampsNonFiniteRewards(t *testing.T) {
	s := toySpace()
	path := filepath.Join(t.TempDir(), "ck.json")
	c := &Checkpointer{Path: path}
	rs, _ := NewRandomSearch(s, 53)
	rng := tensor.NewRNG(53)
	results := []Result{
		{Index: 0, Arch: s.Random(rng), Reward: math.NaN()},
		{Index: 1, Arch: s.Random(rng), Reward: 0.7, Elapsed: time.Second},
	}
	if err := c.save(rs, nil, results); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.restoredResults()
	if got[0].Reward != DivergedReward {
		t.Errorf("NaN reward stored as %g, want sentinel %g", got[0].Reward, DivergedReward)
	}
	if got[1].Reward != 0.7 || got[1].Elapsed != time.Second {
		t.Errorf("finite result mangled: %+v", got[1])
	}
}

// TestCheckpointAtomicOverwrite: repeated saves leave no temp litter and the
// newest state wins.
func TestCheckpointAtomicOverwrite(t *testing.T) {
	s := toySpace()
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	c := &Checkpointer{Path: path}
	rs, _ := NewRandomSearch(s, 54)
	rng := tensor.NewRNG(54)
	for i := 1; i <= 3; i++ {
		var results []Result
		for j := 0; j < i; j++ {
			results = append(results, Result{Index: j, Arch: s.Random(rng), Reward: 0.1})
		}
		if err := c.save(rs, nil, results); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, want only the checkpoint", len(entries))
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumResults() != 3 {
		t.Errorf("latest save has %d results, want 3", loaded.NumResults())
	}
}

// writeTestCheckpoint saves a small valid checkpoint and returns its path
// and raw bytes, for the integrity tests to damage.
func writeTestCheckpoint(t *testing.T) (string, []byte) {
	t.Helper()
	s := toySpace()
	path := filepath.Join(t.TempDir(), "ck.json")
	c := &Checkpointer{Path: path}
	rs, _ := NewRandomSearch(s, 61)
	rng := tensor.NewRNG(61)
	results := []Result{
		{Index: 0, Arch: s.Random(rng), Reward: 0.25},
		{Index: 1, Arch: s.Random(rng), Reward: 0.5},
	}
	if err := c.save(rs, nil, results); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestCheckpointTruncationRejected: a file cut off mid-JSON (a crash while
// writing on a filesystem without atomic rename) must be rejected with a
// clear error, not half-restored.
func TestCheckpointTruncationRejected(t *testing.T) {
	path, data := writeTestCheckpoint(t)
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		cut := int(float64(len(data)) * frac)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCheckpoint(path)
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes was accepted", cut, len(data))
		}
		if !strings.Contains(err.Error(), "truncated") && !strings.Contains(err.Error(), "corrupted") {
			t.Fatalf("truncated checkpoint error not descriptive: %v", err)
		}
	}
}

// TestCheckpointCorruptionRejected: flipping payload bytes while keeping the
// file valid JSON must trip the CRC, catching corruption plain parsing
// would silently accept.
func TestCheckpointCorruptionRejected(t *testing.T) {
	path, data := writeTestCheckpoint(t)
	// Change one reward digit inside the payload: still valid JSON, still a
	// structurally plausible checkpoint — only the checksum knows.
	corrupted := strings.Replace(string(data), "0.25", "0.26", 1)
	if corrupted == string(data) {
		t.Fatal("test setup: reward literal not found in checkpoint file")
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if err == nil {
		t.Fatal("corrupted checkpoint was accepted")
	}
	if !strings.Contains(err.Error(), "CRC32") {
		t.Fatalf("corruption error does not mention the checksum: %v", err)
	}
}

// TestCheckpointVersionRejected: a future schema version fails loudly.
func TestCheckpointVersionRejected(t *testing.T) {
	path, data := writeTestCheckpoint(t)
	bumped := strings.Replace(string(data), `"version": 1`, `"version": 99`, 1)
	if bumped == string(data) {
		t.Fatal("test setup: version field not found in checkpoint file")
	}
	if err := os.WriteFile(path, []byte(bumped), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCheckpoint(path)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future schema version not rejected: %v", err)
	}
}

// TestCheckpointLegacyFormatRejected: a plain Checkpoint document with no
// version or CRC around it cannot be verified, so it does not load.
func TestCheckpointLegacyFormatRejected(t *testing.T) {
	path, _ := writeTestCheckpoint(t)
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := json.MarshalIndent(ck, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("unenveloped checkpoint loaded unverified: %v", err)
	}
}

// TestCheckpointNonCheckpointRejected: a valid-JSON file that is not a
// checkpoint (e.g. a search history handed to -resume by mistake) errors
// instead of resuming empty state.
func TestCheckpointNonCheckpointRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "notack.json")
	if err := os.WriteFile(path, []byte(`{"results": [], "best_arch": "1-2-3"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("non-checkpoint JSON accepted as checkpoint")
	}
}

// TestCheckpointWriteSyncs: the checkpoint write path must fsync the temp
// file and the parent directory (via fsatomic), not merely rename — a power
// loss right after a "committed" save must never surface an empty or torn
// checkpoint.
func TestCheckpointWriteSyncs(t *testing.T) {
	s := toySpace()
	path := filepath.Join(t.TempDir(), "ck.json")
	c := &Checkpointer{Path: path}
	rs, _ := NewRandomSearch(s, 55)
	before := fsatomic.SyncCount()
	if err := c.save(rs, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := fsatomic.SyncCount() - before; got < 2 {
		t.Fatalf("checkpoint save issued %d fsyncs, want >= 2 (temp file + parent dir)", got)
	}
	if _, err := LoadCheckpoint(path); err != nil {
		t.Fatalf("synced checkpoint does not load: %v", err)
	}
}

// TestEnvelopeSealOpenRoundTrip pins the exported envelope helpers other
// durable stores (the nasd job manifests) build on: seal→open returns the
// payload; corruption, truncation and bare unenveloped documents are
// rejected with ErrBadCheckpoint.
func TestEnvelopeSealOpenRoundTrip(t *testing.T) {
	payload := []byte(`{"kind":"RS","results":[]}`)
	sealed, err := SealEnvelope(payload)
	if err != nil {
		t.Fatal(err)
	}
	back, err := OpenEnvelope("test", sealed)
	if err != nil {
		t.Fatal(err)
	}
	// The envelope re-indents the embedded payload; the CRC (and this
	// comparison) are over the compacted form, which must be identical.
	var a, b bytes.Buffer
	if err := json.Compact(&a, payload); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&b, back); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("payload round-tripped to %q", back)
	}
	// One flipped byte inside the payload must fail the CRC.
	bad := []byte(strings.Replace(string(sealed), `"RS"`, `"rs"`, 1))
	if _, err := OpenEnvelope("test", bad); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("corrupted envelope opened: %v", err)
	}
	// Truncation must fail, not panic.
	if _, err := OpenEnvelope("test", sealed[:len(sealed)/2]); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("truncated envelope opened: %v", err)
	}
	// A bare document (no version, no payload) has no CRC to check.
	if _, err := OpenEnvelope("test", []byte(`{"kind":"RS"}`)); !errors.Is(err, ErrBadCheckpoint) {
		t.Errorf("unenveloped document opened: %v", err)
	}
}
