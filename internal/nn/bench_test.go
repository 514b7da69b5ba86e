package nn

import (
	"testing"

	"podnas/internal/tensor"
)

// benchGraph is the paper's hot configuration: 5 POD coefficients in and
// out, stacked LSTM(80), batch 64, 8-step windows.
func benchGraph(b *testing.B) (*Graph, *tensor.Tensor3, *tensor.Tensor3) {
	b.Helper()
	g, err := NewStackedLSTM(5, 5, 80, 1, tensor.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	x := tensor.NewTensor3(64, 8, 5)
	y := tensor.NewTensor3(64, 8, 5)
	rng.FillNormal(x.Data, 1)
	rng.FillNormal(y.Data, 0.5)
	return g, x, y
}

// BenchmarkTrainStep measures one full training step (forward, loss,
// backward, Adam) on the shipped kernel path ("fused") and on the
// test-only pre-kernel layers ("reference"). The fused allocs/op is the
// "per-step allocations ~0" target from the kernel-layer redesign.
func BenchmarkTrainStep(b *testing.B) {
	for _, mode := range []string{"fused", "reference"} {
		b.Run(mode, func(b *testing.B) {
			g, x, y := benchGraph(b)
			if mode == "reference" {
				useReferenceLayers(g)
			}
			opt := NewAdam(0.001)
			var grad *tensor.Tensor3
			// Warm up arenas and pools outside the measured region.
			pred := g.Forward(x)
			var loss float64
			loss, grad = MSELossInto(grad, pred, y)
			_ = loss
			g.Backward(grad)
			opt.Step(g.Params())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pred := g.Forward(x)
				_, grad = MSELossInto(grad, pred, y)
				g.Backward(grad)
				opt.Step(g.Params())
			}
		})
	}
}

// BenchmarkForwardEval measures inference-only throughput on both paths.
func BenchmarkForwardEval(b *testing.B) {
	for _, mode := range []string{"fused", "reference"} {
		b.Run(mode, func(b *testing.B) {
			g, x, _ := benchGraph(b)
			if mode == "reference" {
				useReferenceLayers(g)
			}
			g.Forward(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Forward(x)
			}
		})
	}
}
