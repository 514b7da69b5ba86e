package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"

	"podnas/internal/arch"
	"podnas/internal/search"
)

func keys(cs []candidate) []string {
	var out []string
	for _, c := range cs {
		out = append(out, c.arch.Key())
	}
	return out
}

func TestCandidatePickIsAPureFunctionOfTheSeed(t *testing.T) {
	space := arch.Default()
	a, err := pickCandidates(space, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := pickCandidates(space, 1)
	c, _ := pickCandidates(space, 2)
	for i := range a {
		if a[i].arch.Key() != b[i].arch.Key() || a[i].params != b[i].params {
			t.Errorf("seed 1 picked %v then %v", keys(a), keys(b))
		}
		if i > 0 && a[i].params < a[i-1].params {
			t.Errorf("candidates not in order of size: %d after %d", a[i].params, a[i-1].params)
		}
	}
	same := true
	for i := range a {
		same = same && a[i].arch.Key() == c[i].arch.Key()
	}
	if same {
		t.Error("seeds 1 and 2 picked the same candidates")
	}
	// The sizes the README and the issue quote for the fixed pool seed.
	want := []int{64312, 108072, 160792, 234520}
	fixed, _ := pickCandidates(space, candidatePoolSeed)
	for i, c := range fixed {
		if c.params != want[i] || c.label != candidateRanks[i].label {
			t.Errorf("candidate %d is %s with %d parameters, want %s with %d", i, c.label, c.params, candidateRanks[i].label, want[i])
		}
	}
}

func TestStubEvaluatorIsDeterministic(t *testing.T) {
	space := arch.Default()
	cands, _ := pickCandidates(space, 1)
	seen := map[float64]bool{}
	for _, c := range cands {
		r1, _ := stubEvaluator{}.Evaluate(c.arch, 1)
		r2, _ := stubEvaluator{}.Evaluate(c.arch.Clone(), 99)
		if r1 != r2 || r1 < 0 || r1 >= 1 {
			t.Errorf("stub reward of %s: %v then %v", c.arch.Key(), r1, r2)
		}
		seen[r1] = true
	}
	if len(seen) != len(cands) {
		t.Errorf("%d candidates share %d rewards", len(cands), len(seen))
	}
}

func TestJobSeedsAreDistinctAndSet(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 4; seed++ {
		for k := 0; k < 16; k++ {
			js := jobSeed(seed, k)
			if js == 0 || seen[js] {
				t.Fatalf("jobSeed(%d,%d) = %d is zero or repeated", seed, k, js)
			}
			seen[js] = true
		}
	}
}

// The best a job must report is worked out beside the runner; it has to be
// what the runner finds over the same seed.
func TestExpectedBestMatchesTheRunner(t *testing.T) {
	space := arch.Default()
	js := jobSeed(1, 0)
	want, err := expectedBest(space, js)
	if err != nil {
		t.Fatal(err)
	}

	rs, _ := search.NewRandomSearch(space, js)
	te := &timedEvaluator{inner: ctxStub{}, base: js}
	res, err := search.RunAsyncCtx(context.Background(), rs, te, search.RunAsyncOptions{Workers: 1, MaxEvals: jobEvals, Seed: js})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := search.Best(res)
	if got.Arch.Key() != want.Arch.Key() || math.Float64bits(got.Reward) != math.Float64bits(want.Reward) {
		t.Errorf("runner found %s=%v, expected %s=%v", got.Arch.Key(), got.Reward, want.Arch.Key(), want.Reward)
	}
	for i, c := range te.calls {
		if c.idx != i {
			t.Fatalf("call %d was taken for op %d", i, c.idx)
		}
	}
}

type ctxStub struct{ stubEvaluator }

func (s ctxStub) EvaluateCtx(_ context.Context, a arch.Arch, seed uint64) (float64, error) {
	return s.Evaluate(a, seed)
}

// BENCHMARK.json and the metric tables are one list kept in two places.
func TestManifestMatchesTheMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("manifest lists %d workloads, %d+%d metrics; the tables %d, %d+%d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: manifest %q, table %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	for i, d := range endToEnd {
		if m := doc.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: manifest %+v, table %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := doc.PerLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: manifest %+v, table %+v", i, m, d)
		}
	}
}
