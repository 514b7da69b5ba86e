package kernel_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"podnas/internal/kernel"
	"podnas/internal/nn"
	"podnas/internal/tensor"
)

// trainParityWeights is nn's trainParityGraph — three epochs of Adam with
// input noise and weight decay on a graph with every layer kind: LSTMs,
// skip projections, a merge ReLU, an Identity node and the ragged
// LSTM(5) head — hashed. It lives here, not in nn, because only the
// kernel's own tests can pin the elementwise family.
func trainParityWeights(t *testing.T, seed uint64, cfg kernel.Config) uint64 {
	t.Helper()
	spec := nn.GraphSpec{
		InputDim: 6,
		Nodes: []nn.GraphNodeSpec{
			{Inputs: []int{nn.GraphInput}, Units: 9},
			{Inputs: []int{0, nn.GraphInput}, Units: 0},
			{Inputs: []int{1, 0}, Units: 7},
			{Inputs: []int{2}, Units: 5},
		},
	}
	g, err := nn.NewGraph(spec, tensor.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	g.SetKernelConfig(cfg)
	rng := tensor.NewRNG(seed + 100)
	x := tensor.NewTensor3(10, 4, spec.InputDim)
	rng.FillNormal(x.Data, 1)
	y := tensor.NewTensor3(10, 4, g.OutDim())
	rng.FillNormal(y.Data, 1)
	tc := nn.TrainConfig{Epochs: 3, BatchSize: 4, LR: 0.01, Seed: seed, InputNoise: 0.01, WeightDecay: 0.001}
	if _, err := nn.Train(g, x, y, tc); err != nil {
		t.Fatal(err)
	}
	weights := g.ExportWeights()
	names := make([]string, 0, len(weights))
	for name := range weights {
		names = append(names, name)
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, name := range names {
		fmt.Fprint(h, name)
		for _, w := range weights[name] {
			fmt.Fprintf(h, "%016x", math.Float64bits(w))
		}
	}
	return h.Sum64()
}

// TestTrainingBitIdenticalAcrossElemFamilies trains the same network
// with the elementwise family pinned to each one the host has and
// requires the same weights, bit for bit, serial and fanned out: the
// pure-Go body cannot fuse or reorder anything, so a vector body that
// slips an FMA in, drops a rounding or reorders a column sum shows here
// as a different hash after three epochs of compounding.
func TestTrainingBitIdenticalAcrossElemFamilies(t *testing.T) {
	configs := map[string]kernel.Config{
		"workers=1": {Workers: 1},
		"workers=8": {Workers: 8, ParallelThreshold: 1},
	}
	for _, seed := range []uint64{1, 2, 3, 5} {
		for cname, cfg := range configs {
			var want uint64
			for i, fam := range kernel.ElemFamilies() {
				restore := kernel.ForceElemFamily(fam)
				got := trainParityWeights(t, seed, cfg)
				restore()
				if i == 0 {
					want = got
				} else if got != want {
					t.Errorf("seed %d %s: weights hash %016x on %s, %016x on generic", seed, cname, got, fam, want)
				}
			}
		}
	}
}
