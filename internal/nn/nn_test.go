package nn

import (
	"math"
	"strings"
	"testing"

	"podnas/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense("d", 2, 3, rng)
	copy(d.W.W, []float64{1, 2, 3, 4, 5, 6}) // W is 2x3
	copy(d.B.W, []float64{0.5, -0.5, 1})
	x := tensor.Tensor3FromSlice(1, 2, 2, []float64{1, 1, 2, 0})
	y := d.Forward(x)
	// step0: [1,1]·W + b = [5.5, 6.5, 10]; step1: [2,0]·W + b = [2.5, 3.5, 7].
	want := []float64{5.5, 6.5, 10, 2.5, 3.5, 7}
	for i, v := range want {
		if math.Abs(y.Data[i]-v) > 1e-12 {
			t.Errorf("dense out[%d] = %g, want %g", i, y.Data[i], v)
		}
	}
}

func TestDensePanicsOnWrongDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	d := NewDense("d", 3, 2, tensor.NewRNG(1))
	d.Forward(tensor.NewTensor3(1, 1, 4))
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU(2)
	x := tensor.Tensor3FromSlice(1, 2, 2, []float64{-1, 2, 0, 3})
	y := r.Forward(x)
	want := []float64{0, 2, 0, 3}
	for i, v := range want {
		if y.Data[i] != v {
			t.Errorf("relu out[%d] = %g, want %g", i, y.Data[i], v)
		}
	}
	d := tensor.Tensor3FromSlice(1, 2, 2, []float64{5, 5, 5, 5})
	dx := r.Backward(d)
	wantG := []float64{0, 5, 0, 5}
	for i, v := range wantG {
		if dx.Data[i] != v {
			t.Errorf("relu grad[%d] = %g, want %g", i, dx.Data[i], v)
		}
	}
}

func TestReLUBackwardBeforeForwardPanics(t *testing.T) {
	defer func() {
		if r := recover(); r != "nn: ReLU.Backward before Forward" {
			t.Errorf("recovered %v, want the layer's own panic", r)
		}
	}()
	NewReLU(2).Backward(tensor.NewTensor3(1, 1, 2))
}

// TestReLUEdgeSemantics pins what the rectifier does where `v > 0` is
// not obvious, with the mask now taken from the forward output: a NaN
// input rectifies to +0 and passes no gradient, -0 becomes +0, +Inf
// passes. Twelve features put the first eight through a vector body and
// the rest through the scalar tail.
func TestReLUEdgeSemantics(t *testing.T) {
	negZero := math.Copysign(0, -1)
	in := []float64{math.NaN(), negZero, math.Inf(1), math.Inf(-1), -1, 1, 0, 5e-324,
		math.NaN(), negZero, math.Inf(1), 3}
	want := []float64{0, 0, math.Inf(1), 0, 0, 1, 0, 5e-324, 0, 0, math.Inf(1), 3}
	wantGrad := []float64{0, 0, -2, 0, 0, -2, 0, -2, 0, 0, -2, -2}
	r := NewReLU(len(in))
	y := r.Forward(tensor.Tensor3FromSlice(1, 1, len(in), in))
	d := tensor.NewTensor3(1, 1, len(in))
	for i := range d.Data {
		d.Data[i] = -2
	}
	dx := r.Backward(d)
	for i := range in {
		if math.Float64bits(y.Data[i]) != math.Float64bits(want[i]) {
			t.Errorf("relu(%g) = %g (bits %x), want %g", in[i], y.Data[i], math.Float64bits(y.Data[i]), want[i])
		}
		if math.Float64bits(dx.Data[i]) != math.Float64bits(wantGrad[i]) {
			t.Errorf("gradient at %g = %g (bits %x), want %g", in[i], dx.Data[i], math.Float64bits(dx.Data[i]), wantGrad[i])
		}
	}
}

func TestLSTMShapesAndDeterminism(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewLSTM("l", 3, 5, rng)
	x := tensor.NewTensor3(4, 6, 3)
	tensor.NewRNG(9).FillNormal(x.Data, 1)
	// Forward output aliases the layer's arena; clone before the next pass.
	y1 := l.Forward(x).Clone()
	if y1.B != 4 || y1.T != 6 || y1.F != 5 {
		t.Fatalf("LSTM output shape %dx%dx%d", y1.B, y1.T, y1.F)
	}
	y2 := l.Forward(x)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("LSTM forward is not deterministic")
		}
	}
}

func TestLSTMOutputBounded(t *testing.T) {
	// h = o·tanh(c) with o in (0,1): |h| < 1 always... no — c is unbounded,
	// but tanh(c) is in (-1,1), so |h| < 1.
	rng := tensor.NewRNG(3)
	l := NewLSTM("l", 2, 4, rng)
	x := tensor.NewTensor3(3, 10, 2)
	tensor.NewRNG(10).FillNormal(x.Data, 5)
	y := l.Forward(x)
	for _, v := range y.Data {
		if math.Abs(v) >= 1 {
			t.Fatalf("LSTM hidden value %g outside (-1,1)", v)
		}
	}
}

func TestLSTMCausality(t *testing.T) {
	// Changing the input at timestep k must not affect outputs before k.
	rng := tensor.NewRNG(4)
	l := NewLSTM("l", 2, 3, rng)
	x := tensor.NewTensor3(1, 6, 2)
	tensor.NewRNG(11).FillNormal(x.Data, 1)
	// Forward output aliases the layer's arena; clone before the next pass.
	y1 := l.Forward(x).Clone()
	x2 := x.Clone()
	x2.Set(0, 4, 0, 99)
	x2.Set(0, 4, 1, -99)
	y2 := l.Forward(x2)
	for step := 0; step < 4; step++ {
		for f := 0; f < 3; f++ {
			if y1.At(0, step, f) != y2.At(0, step, f) {
				t.Fatalf("output at step %d changed when input at step 4 changed", step)
			}
		}
	}
	changed := false
	for f := 0; f < 3; f++ {
		if y1.At(0, 4, f) != y2.At(0, 4, f) {
			changed = true
		}
	}
	if !changed {
		t.Error("output at step 4 did not respond to its input")
	}
}

func TestLSTMBatchIndependence(t *testing.T) {
	// Each batch element must be processed independently.
	rng := tensor.NewRNG(5)
	l := NewLSTM("l", 2, 3, rng)
	x := tensor.NewTensor3(2, 4, 2)
	tensor.NewRNG(12).FillNormal(x.Data, 1)
	full := l.Forward(x).Clone()
	solo := l.Forward(x.Gather([]int{1}))
	for step := 0; step < 4; step++ {
		for f := 0; f < 3; f++ {
			if math.Abs(full.At(1, step, f)-solo.At(0, step, f)) > 1e-12 {
				t.Fatalf("batch element 1 differs when processed alone (step %d)", step)
			}
		}
	}
}

func TestForgetBiasInitialized(t *testing.T) {
	l := NewLSTM("l", 2, 4, tensor.NewRNG(6))
	for j := 4; j < 8; j++ {
		if l.B.W[j] != 1 {
			t.Errorf("forget bias[%d] = %g, want 1", j, l.B.W[j])
		}
	}
	for j := 0; j < 4; j++ {
		if l.B.W[j] != 0 {
			t.Errorf("input bias[%d] = %g, want 0", j, l.B.W[j])
		}
	}
}

func TestGraphSpecValidate(t *testing.T) {
	bad := []GraphSpec{
		{InputDim: 0, Nodes: []GraphNodeSpec{{Inputs: []int{GraphInput}}}},
		{InputDim: 2},
		{InputDim: 2, Nodes: []GraphNodeSpec{{Inputs: nil}}},
		{InputDim: 2, Nodes: []GraphNodeSpec{{Inputs: []int{0}}}},                              // self/forward ref
		{InputDim: 2, Nodes: []GraphNodeSpec{{Inputs: []int{GraphInput}, Units: -1}}},          // negative units
		{InputDim: 2, Nodes: []GraphNodeSpec{{Inputs: []int{GraphInput}}, {Inputs: []int{5}}}}, // out of range
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be invalid", i)
		}
	}
}

func TestGraphParamCount(t *testing.T) {
	// LSTM params: 4H(F+H+1). Chain: input(2) -> LSTM(3) -> LSTM(2).
	g, err := NewGraph(GraphSpec{InputDim: 2, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 3},
		{Inputs: []int{0}, Units: 2},
	}}, tensor.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	want := 4*3*(2+3+1) + 4*2*(3+2+1)
	if got := g.ParamCount(); got != want {
		t.Errorf("ParamCount = %d, want %d", got, want)
	}
}

func TestGraphSkipAddsProjectionParams(t *testing.T) {
	base := GraphSpec{InputDim: 2, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 3},
		{Inputs: []int{0}, Units: 3},
		{Inputs: []int{1}, Units: 2},
	}}
	withSkip := GraphSpec{InputDim: 2, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 3},
		{Inputs: []int{0}, Units: 3},
		{Inputs: []int{1, 0}, Units: 2},
	}}
	g1, _ := NewGraph(base, tensor.NewRNG(8))
	g2, _ := NewGraph(withSkip, tensor.NewRNG(8))
	// Two 3→3 projections with bias: 2*(9+3) = 24 extra weights.
	if diff := g2.ParamCount() - g1.ParamCount(); diff != 24 {
		t.Errorf("skip added %d params, want 24", diff)
	}
}

func TestIdentityChainIsTransparent(t *testing.T) {
	// A graph of only identity nodes returns its input.
	g, err := NewGraph(GraphSpec{InputDim: 3, Nodes: []GraphNodeSpec{
		{Inputs: []int{GraphInput}, Units: 0},
		{Inputs: []int{0}, Units: 0},
	}}, tensor.NewRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.NewTensor3(2, 3, 3)
	tensor.NewRNG(13).FillNormal(x.Data, 1)
	y := g.Forward(x)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("identity chain altered input")
		}
	}
	if g.ParamCount() != 0 {
		t.Errorf("identity chain has %d params", g.ParamCount())
	}
}

func TestStackedLSTMConstructor(t *testing.T) {
	g, err := NewStackedLSTM(5, 5, 40, 1, tensor.NewRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	if g.OutDim() != 5 || g.InDim() != 5 {
		t.Errorf("dims in=%d out=%d", g.InDim(), g.OutDim())
	}
	// 1 hidden layer of 40 + output LSTM(5):
	want := 4*40*(5+40+1) + 4*5*(40+5+1)
	if g.ParamCount() != want {
		t.Errorf("ParamCount = %d, want %d", g.ParamCount(), want)
	}
}

func TestAdamReducesLossOnQuadratic(t *testing.T) {
	// Minimize ||w - target||² directly through the optimizer.
	p := NewParam("w", 3)
	copy(p.W, []float64{5, -3, 2})
	target := []float64{1, 1, 1}
	opt := NewAdam(0.05)
	for it := 0; it < 2000; it++ {
		for i := range p.W {
			p.G[i] = 2 * (p.W[i] - target[i])
		}
		opt.Step([]*Param{p})
	}
	for i := range p.W {
		if math.Abs(p.W[i]-target[i]) > 1e-3 {
			t.Errorf("w[%d] = %g after Adam, want %g", i, p.W[i], target[i])
		}
	}
}

func TestMSELossAndGrad(t *testing.T) {
	p := tensor.Tensor3FromSlice(1, 1, 2, []float64{2, 4})
	y := tensor.Tensor3FromSlice(1, 1, 2, []float64{0, 0})
	loss, grad := MSELoss(p, y)
	if math.Abs(loss-10) > 1e-12 { // (4+16)/2
		t.Errorf("loss = %g, want 10", loss)
	}
	if math.Abs(grad.Data[0]-2) > 1e-12 || math.Abs(grad.Data[1]-4) > 1e-12 {
		t.Errorf("grad = %v", grad.Data)
	}
}

func TestTrainLearnsIdentityTask(t *testing.T) {
	// Task: output half the input sequence. Targets stay well inside the
	// (-1,1) range reachable by an LSTM output layer (h = o·tanh(c)), so the
	// network can fit them; loss must drop by a large factor and R² must
	// become high.
	rng := tensor.NewRNG(11)
	x := tensor.NewTensor3(64, 4, 2)
	rng.FillNormal(x.Data, 1)
	y := x.Clone()
	for i := range y.Data {
		y.Data[i] *= 0.5
	}
	g, err := NewStackedLSTM(2, 2, 16, 1, tensor.NewRNG(12))
	if err != nil {
		t.Fatal(err)
	}
	before := EvaluateR2(g, x, y)
	var losses []float64
	cfg := TrainConfig{Epochs: 120, BatchSize: 16, LR: 0.01, Seed: 3,
		EpochCallback: func(_ int, l float64) { losses = append(losses, l) }}
	if _, err := Train(g, x, y, cfg); err != nil {
		t.Fatal(err)
	}
	after := EvaluateR2(g, x, y)
	if after < 0.9 {
		t.Errorf("R² after training = %.3f (before %.3f), want > 0.9", after, before)
	}
	if len(losses) != 120 {
		t.Errorf("epoch callback fired %d times, want 120", len(losses))
	}
	if losses[len(losses)-1] > losses[0]/10 {
		t.Errorf("loss did not drop 10x: first %.4g last %.4g", losses[0], losses[len(losses)-1])
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	g, _ := NewStackedLSTM(2, 2, 4, 1, tensor.NewRNG(13))
	x := tensor.NewTensor3(4, 3, 2)
	y := tensor.NewTensor3(5, 3, 2)
	if _, err := Train(g, x, y, DefaultTrainConfig()); err == nil {
		t.Error("expected batch-mismatch error")
	}
	y2 := tensor.NewTensor3(4, 3, 2)
	if _, err := Train(g, x, y2, TrainConfig{Epochs: 0, BatchSize: 8, LR: 0.01}); err == nil {
		t.Error("expected invalid-config error")
	}
	empty := tensor.NewTensor3(0, 3, 2)
	if _, err := Train(g, empty, empty, DefaultTrainConfig()); err == nil {
		t.Error("expected empty-data error")
	}
}

func TestTrainDivergenceDetected(t *testing.T) {
	// An absurd learning rate must be reported as divergence, not panic.
	rng := tensor.NewRNG(14)
	x := tensor.NewTensor3(32, 4, 2)
	rng.FillNormal(x.Data, 100)
	y := x.Clone()
	for i := range y.Data {
		y.Data[i] *= 1e6
	}
	g, _ := NewStackedLSTM(2, 2, 8, 1, tensor.NewRNG(15))
	_, err := Train(g, x, y, TrainConfig{Epochs: 200, BatchSize: 32, LR: 1e18, Seed: 1})
	if err != nil && !strings.Contains(err.Error(), "diverged") && !strings.Contains(err.Error(), "finite") {
		t.Errorf("unexpected error kind: %v", err)
	}
	// Either it diverged (error) or Adam's normalization kept it finite;
	// both are acceptable, but weights must never be silently NaN.
	if err == nil {
		for _, p := range g.Params() {
			if ferr := checkFinite(p.Name, p.W); ferr != nil {
				t.Errorf("training reported success with non-finite weights: %v", ferr)
			}
		}
	}
}

func TestPredictMatchesForwardAcrossBatches(t *testing.T) {
	rng := tensor.NewRNG(16)
	g, _ := NewStackedLSTM(3, 3, 6, 1, tensor.NewRNG(17))
	x := tensor.NewTensor3(10, 4, 3)
	rng.FillNormal(x.Data, 1)
	full := g.Forward(x).Clone()
	batched := Predict(g, x, 3)
	for i := range full.Data {
		if math.Abs(full.Data[i]-batched.Data[i]) > 1e-12 {
			t.Fatal("batched Predict differs from single Forward")
		}
	}
}

func TestGraphDeterministicInit(t *testing.T) {
	g1, _ := NewStackedLSTM(2, 2, 4, 2, tensor.NewRNG(18))
	g2, _ := NewStackedLSTM(2, 2, 4, 2, tensor.NewRNG(18))
	p1, p2 := g1.Params(), g2.Params()
	for i := range p1 {
		for j := range p1[i].W {
			if p1[i].W[j] != p2[i].W[j] {
				t.Fatal("same seed produced different init")
			}
		}
	}
}

func TestDefaultTrainConfigMatchesPaper(t *testing.T) {
	cfg := DefaultTrainConfig()
	if cfg.Epochs != 20 || cfg.BatchSize != 64 || cfg.LR != 0.001 {
		t.Errorf("default train config %+v does not match the paper (20 epochs, batch 64, lr 1e-3)", cfg)
	}
}

func TestMSELossPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	MSELoss(tensor.NewTensor3(1, 1, 2), tensor.NewTensor3(1, 1, 3))
}

func TestPredictDefaultBatch(t *testing.T) {
	rng := tensor.NewRNG(30)
	g, _ := NewStackedLSTM(2, 2, 4, 1, rng)
	x := tensor.NewTensor3(5, 3, 2)
	rng.FillNormal(x.Data, 1)
	// batchSize <= 0 falls back to the default without panicking.
	out := Predict(g, x, 0)
	if out.B != 5 {
		t.Errorf("Predict output batch %d", out.B)
	}
}

func TestGraphBackwardBeforeForwardPanics(t *testing.T) {
	g, _ := NewStackedLSTM(2, 2, 4, 1, tensor.NewRNG(31))
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g.Backward(tensor.NewTensor3(1, 1, 2))
}
