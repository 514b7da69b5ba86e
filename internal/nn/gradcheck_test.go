package nn

import (
	"fmt"
	"math"
	"testing"

	"podnas/internal/tensor"
)

// lossOf runs a forward pass and returns the MSE loss against target.
func lossOf(g *Graph, x, y *tensor.Tensor3) float64 {
	pred := g.Forward(x)
	loss, _ := MSELoss(pred, y)
	return loss
}

// gradCheckGraph compares analytic parameter and input gradients against
// central finite differences for an arbitrary graph.
func gradCheckGraph(t *testing.T, g *Graph, x, y *tensor.Tensor3, tol float64) {
	t.Helper()
	// Analytic gradients.
	for _, p := range g.Params() {
		p.ZeroGrad()
	}
	pred := g.Forward(x)
	_, grad := MSELoss(pred, y)
	dIn := g.Backward(grad)

	const eps = 1e-5
	// Parameter gradients (subsample large parameters for speed).
	for _, p := range g.Params() {
		stride := 1
		if len(p.W) > 40 {
			stride = len(p.W) / 40
		}
		for i := 0; i < len(p.W); i += stride {
			orig := p.W[i]
			p.W[i] = orig + eps
			lp := lossOf(g, x, y)
			p.W[i] = orig - eps
			lm := lossOf(g, x, y)
			p.W[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := p.G[i]
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Errorf("%s[%d]: analytic %.6g vs numeric %.6g", p.Name, i, ana, num)
			}
		}
	}
	// Input gradients.
	for i := 0; i < len(x.Data); i++ {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossOf(g, x, y)
		x.Data[i] = orig - eps
		lm := lossOf(g, x, y)
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dIn.Data[i]) > tol*(1+math.Abs(num)) {
			t.Errorf("dInput[%d]: analytic %.6g vs numeric %.6g", i, dIn.Data[i], num)
		}
	}
}

func smallData(rng *tensor.RNG, b, steps, f, out int) (*tensor.Tensor3, *tensor.Tensor3) {
	x := tensor.NewTensor3(b, steps, f)
	y := tensor.NewTensor3(b, steps, out)
	rng.FillNormal(x.Data, 1)
	rng.FillNormal(y.Data, 1)
	return x, y
}

func TestGradCheckDenseChain(t *testing.T) {
	rng := tensor.NewRNG(1)
	// Single LSTM output node over a dense-free chain is covered elsewhere;
	// here: input -> identity -> LSTM(3).
	spec := GraphSpec{InputDim: 2, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 0},
		{Inputs: []int{0}, Units: 3},
	}}
	g, err := NewGraph(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallData(rng, 3, 4, 2, 3)
	gradCheckGraph(t, g, x, y, 1e-4)
}

func TestGradCheckSingleLSTM(t *testing.T) {
	rng := tensor.NewRNG(2)
	spec := GraphSpec{InputDim: 3, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 4},
	}}
	g, err := NewGraph(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallData(rng, 2, 5, 3, 4)
	gradCheckGraph(t, g, x, y, 1e-4)
}

func TestGradCheckStackedLSTM(t *testing.T) {
	rng := tensor.NewRNG(3)
	g, err := NewStackedLSTM(2, 2, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallData(rng, 2, 3, 2, 2)
	gradCheckGraph(t, g, x, y, 1e-4)
}

func TestGradCheckSkipConnectionMerge(t *testing.T) {
	// The paper's skip topology: node 2 merges the chain (node 1) and a skip
	// from node 0 via dense projections, sum, ReLU.
	rng := tensor.NewRNG(4)
	spec := GraphSpec{InputDim: 2, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 3},
		{Inputs: []int{0}, Units: 4},
		{Inputs: []int{1, 0}, Units: 3},
		{Inputs: []int{2}, Units: 2},
	}}
	g, err := NewGraph(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallData(rng, 2, 3, 2, 2)
	gradCheckGraph(t, g, x, y, 1e-4)
}

func TestGradCheckSkipFromInput(t *testing.T) {
	// Skip connections can reach back to the network input itself.
	rng := tensor.NewRNG(5)
	spec := GraphSpec{InputDim: 3, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 4},
		{Inputs: []int{0, GraphInput}, Units: 3},
	}}
	g, err := NewGraph(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallData(rng, 2, 3, 3, 3)
	gradCheckGraph(t, g, x, y, 1e-4)
}

func TestGradCheckIdentityNodesAndMultiConsumer(t *testing.T) {
	// A node whose output feeds three consumers (chain + two skips)
	// exercises gradient accumulation across fan-out.
	rng := tensor.NewRNG(6)
	spec := GraphSpec{InputDim: 2, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 3},
		{Inputs: []int{0}, Units: 0}, // identity
		{Inputs: []int{1, 0}, Units: 4},
		{Inputs: []int{2, 0}, Units: 2},
	}}
	g, err := NewGraph(spec, rng)
	if err != nil {
		t.Fatal(err)
	}
	x, y := smallData(rng, 2, 3, 2, 2)
	gradCheckGraph(t, g, x, y, 1e-4)
}

// TestGradCheckSearchSpaceOps runs the finite-difference check over every
// LSTM width the paper's search space can pick (arch.DefaultSpace: 16,
// 32, 64, 80, 96) and the constant LSTM(5) output head — widths at which
// the gate sweeps, bias and column-sum loops and Adam's inputs run as
// whole vectors, where the other checks' widths of 2–4 exercise only the
// scalar tails — each both as a plain chain and behind the paper's
// projection + sum + ReLU merge of a skip from the input.
func TestGradCheckSearchSpaceOps(t *testing.T) {
	const inDim, outDim = 5, 5
	for _, units := range []int{16, 32, 64, 80, 96} {
		chain := GraphSpec{InputDim: inDim, Nodes: []GraphNodeSpec{
			{Inputs: []int{GraphInput}, Units: units},
			{Inputs: []int{0}, Units: outDim},
		}}
		merged := GraphSpec{InputDim: inDim, Nodes: []GraphNodeSpec{
			{Inputs: []int{GraphInput}, Units: units},
			{Inputs: []int{0, GraphInput}, Units: units},
			{Inputs: []int{1}, Units: outDim},
		}}
		for name, spec := range map[string]GraphSpec{"chain": chain, "merge": merged} {
			rng := tensor.NewRNG(uint64(units))
			g, err := NewGraph(spec, rng)
			if err != nil {
				t.Fatal(err)
			}
			x, y := smallData(rng, 2, 3, inDim, outDim)
			t.Run(fmt.Sprintf("LSTM%d/%s", units, name), func(t *testing.T) {
				gradCheckGraph(t, g, x, y, 1e-4)
			})
		}
	}
}
