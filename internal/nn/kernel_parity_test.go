package nn

import (
	"math"
	"testing"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// paritySpec exercises every layer kind the network implements: LSTMs,
// skip-connection Dense projections, merge ReLUs, and an Identity node.
func paritySpec() GraphSpec {
	return GraphSpec{
		InputDim: 6,
		Nodes: []GraphNodeSpec{
			{Inputs: []int{GraphInput}, Units: 9},
			{Inputs: []int{0, GraphInput}, Units: 0},
			{Inputs: []int{1, 0}, Units: 7},
			{Inputs: []int{2}, Units: 5},
		},
	}
}

func randT3(rng *tensor.RNG, b, t, f int) *tensor.Tensor3 {
	x := tensor.NewTensor3(b, t, f)
	rng.FillNormal(x.Data, 1)
	return x
}

func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / scale
}

func maxRelDiffSlice(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := relDiff(a[i], b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// TestFusedMatchesReferenceGradients pins the shipped kernel path to the
// test-only pre-kernel layers (reference_test.go) at 1e-9: outputs,
// parameter gradients, and the input gradient. The two may reorder float
// sums (fused GEMM tiling, fast-exp activations), so bitwise equality is
// not expected — 1e-9 relative is.
func TestFusedMatchesReferenceGradients(t *testing.T) {
	const tol = 1e-9
	spec := paritySpec()
	gF, err := NewGraph(spec, tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	gR, err := NewGraph(spec, tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	useReferenceLayers(gR)

	rng := tensor.NewRNG(11)
	x := randT3(rng, 4, 5, spec.InputDim)
	outF := gF.Forward(x)
	outR := gR.Forward(x)
	if d := maxRelDiffSlice(outF.Data, outR.Data); d > tol {
		t.Fatalf("forward outputs differ by %g (tol %g)", d, tol)
	}

	dOut := randT3(rng, 4, 5, gF.OutDim())
	dInF := gF.Backward(dOut)
	dInR := gR.Backward(dOut)
	if d := maxRelDiffSlice(dInF.Data, dInR.Data); d > tol {
		t.Fatalf("input gradients differ by %g (tol %g)", d, tol)
	}
	pF, pR := gF.Params(), gR.Params()
	if len(pF) != len(pR) {
		t.Fatalf("param count mismatch %d vs %d", len(pF), len(pR))
	}
	for i := range pF {
		if d := maxRelDiffSlice(pF[i].G, pR[i].G); d > tol {
			t.Errorf("gradient %s differs by %g (tol %g)", pF[i].Name, d, tol)
		}
	}
}

func trainParityGraph(t *testing.T, seed uint64, mutate func(*Graph)) map[string][]float64 {
	t.Helper()
	spec := paritySpec()
	g, err := NewGraph(spec, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(g)
	}
	rng := tensor.NewRNG(seed + 100)
	x := randT3(rng, 10, 4, spec.InputDim)
	y := randT3(rng, 10, 4, g.OutDim())
	cfg := TrainConfig{Epochs: 3, BatchSize: 4, LR: 0.01, Seed: seed, InputNoise: 0.01, WeightDecay: 0.001}
	if _, err := Train(g, x, y, cfg); err != nil {
		t.Fatal(err)
	}
	return g.ExportWeights()
}

func requireBitIdentical(t *testing.T, what string, a, b map[string][]float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: weight map sizes differ %d vs %d", what, len(a), len(b))
	}
	for name, wa := range a {
		wb, ok := b[name]
		if !ok {
			t.Fatalf("%s: missing %s", what, name)
		}
		for i := range wa {
			if math.Float64bits(wa[i]) != math.Float64bits(wb[i]) {
				t.Fatalf("%s: %s[%d] differs bitwise: %x vs %x",
					what, name, i, math.Float64bits(wa[i]), math.Float64bits(wb[i]))
			}
		}
	}
}

// poisonArena leaves a one NaN-filled slab of n floats for every later
// Alloc to carve from.
func poisonArena(a *kernel.Arena, n int) {
	slab := a.Alloc(n)
	for i := range slab {
		slab[i] = math.NaN()
	}
	a.Reset()
}

// TestArenaAllocBitIdentity is the arena discipline property test: what
// Arena.Alloc hands out is dirty, so a full training run whose arenas
// start out filled with NaN must be bit-identical to the same run on
// fresh (zeroed) arenas, across seeds. Any kernel or layer reading arena
// memory it has not fully overwritten breaks this immediately.
func TestArenaAllocBitIdentity(t *testing.T) {
	// Far more than one pass over paritySpec allocates, so every buffer
	// of the poisoned run comes out of the NaN slab.
	const slab = 1 << 16
	for _, seed := range []uint64{1, 2, 3} {
		clean := trainParityGraph(t, seed, nil)
		poisoned := trainParityGraph(t, seed, func(g *Graph) {
			poisonArena(g.es.fwd, slab)
			poisonArena(g.es.bwd, slab)
		})
		requireBitIdentical(t, "clean-vs-poisoned arena", clean, poisoned)
	}
}

// TestParallelBPTTDeterminism pins the deterministic-reduction contract
// end to end: training with one kernel worker and with aggressive
// goroutine fan-out (8 workers, parallel threshold 1, so even tiny GEMMs
// split) must produce bit-identical checkpoints.
func TestParallelBPTTDeterminism(t *testing.T) {
	serial := trainParityGraph(t, 5, func(g *Graph) {
		g.SetKernelConfig(kernel.Config{Workers: 1})
	})
	parallel := trainParityGraph(t, 5, func(g *Graph) {
		g.SetKernelConfig(kernel.Config{Workers: 8, ParallelThreshold: 1})
	})
	requireBitIdentical(t, "serial-vs-parallel", serial, parallel)
}

// TestTrainConfigWorkersPlumbing checks that TrainConfig.Workers reaches
// the graph's kernel policy and changes nothing numerically.
func TestTrainConfigWorkersPlumbing(t *testing.T) {
	spec := paritySpec()
	g, err := NewGraph(spec, tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(109)
	x := randT3(rng, 6, 3, spec.InputDim)
	y := randT3(rng, 6, 3, g.OutDim())
	cfg := TrainConfig{Epochs: 1, BatchSize: 3, LR: 0.01, Seed: 9, Workers: 4}
	if _, err := Train(g, x, y, cfg); err != nil {
		t.Fatal(err)
	}
	if got := g.KernelConfig().Workers; got != 4 {
		t.Fatalf("TrainConfig.Workers not plumbed: got %d", got)
	}
}
