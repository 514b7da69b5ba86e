package kernel

import (
	"fmt"
	"testing"
)

// benchCases are the ten shapes one paper evaluation and the pipeline's
// set-up issue: a 96-unit LSTM over (batch 64, T=8) windows — so one
// timestep of a (B,T,F) buffer is a view of stride T·F — plus batch-1
// inference, and POD's Gram and projection products over the default
// 10 700×427 snapshot matrix.
var benchCases = []gemmCase{
	{name: "h.Wh", m: 64, k: 96, n: 384, accumulate: true, lda: 8 * 96, ldc: 8 * 384},
	{name: "dz.WhT", m: 64, k: 384, n: 96, transB: true, packed: true, lda: 8 * 384},
	{name: "X.Wx", m: 512, k: 96, n: 384},
	{name: "dZ.WxT", m: 512, k: 384, n: 96, transB: true},
	{name: "dZ.WxT_in5", m: 512, k: 384, n: 5, transB: true},
	{name: "batch1", m: 1, k: 96, n: 384},
	{name: "hT.dz", m: 96, k: 64, n: 384, transA: true, accumulate: true, lda: 8 * 96, ldb: 8 * 384},
	{name: "XT.dZ", m: 96, k: 512, n: 384, transA: true, accumulate: true},
	{name: "gram", m: 427, k: 10700, n: 427, transA: true, accumulate: true},
	{name: "project", m: 5, k: 10700, n: 427, transA: true},
}

// BenchmarkGemm reports single-worker GFLOP/s per shape on the host's
// best micro-kernel family ("kernel") and the pure-Go one ("generic").
func BenchmarkGemm(b *testing.B) {
	for _, g := range benchCases {
		for _, mode := range []string{"kernel", "generic"} {
			b.Run(fmt.Sprintf("%s/%s_%dx%dx%d", mode, g.name, g.m, g.k, g.n), func(b *testing.B) {
				cfg := Config{Workers: 1, ForceGeneric: mode == "generic"}
				dst, a, bm := g.operands(&testRNG{s: 1}, heap)
				var pb *PackedB
				if g.packed {
					pb = cfg.PackB(nil, bm, g.transB)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if g.packed {
						cfg.GemmPacked(dst, a, g.transA, pb, g.accumulate)
					} else {
						cfg.Gemm(dst, a, bm, g.transA, g.transB, g.accumulate)
					}
				}
				flops := 2 * float64(g.m) * float64(g.k) * float64(g.n) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkLSTMForwardStep(b *testing.B) {
	const H = 80
	r := &testRNG{s: 2}
	z := make([]float64, 4*H)
	orig := make([]float64, 4*H)
	for i := range orig {
		orig[i] = 3 * r.next()
	}
	cPrev := make([]float64, H)
	c, tc, h := make([]float64, H), make([]float64, H), make([]float64, H)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(z, orig)
		LSTMForwardStep(z, cPrev, c, tc, h)
	}
}

// elemBenchCases are the sizes one evaluation issues of each elementwise
// op: Adam on a 96-unit LSTM's recurrent matrix and on the LSTM(5) head's
// bias, the backward gate sweep one batch of 64 rows at a time at H = 5,
// 16 and 96, the merge ReLU and add over (64·8)×96 activations, and the
// bias broadcast and bias-gradient column sum over (64·8)×4·96 gate
// pre-activations.
var elemBenchCases = []struct {
	op          string
	rows, width int
}{
	{"AdamStep", 96, 384}, {"AdamStep", 5, 20},
	{"LSTMBackwardStep", 64, 5}, {"LSTMBackwardStep", 64, 16}, {"LSTMBackwardStep", 64, 96},
	{"ReLU", 512, 96}, {"ReLUGrad", 512, 96}, {"AddTo", 512, 96},
	{"AddRows", 512, 384}, {"SumRows", 512, 384},
}

// elemBenchDrift lists, per op, the operands it updates in place whose
// values would run away over a benchmark's iterations (Adam's moments
// decay into denormals once the gradient is zeroed, and so does the cell
// carry); BenchmarkElem restores them before every call, inside the
// timing — one copy against Adam's three divisions or the sweep's
// seventeen streams.
var elemBenchDrift = map[string][]int{"AdamStep": {0, 1, 2, 3}, "LSTMBackwardStep": {5}}

// BenchmarkElem reports ns per element of every elementwise op at the
// sizes above on every family the host has. Adam is bound by the vector
// divider (three divisions and a square root per element); the rest
// stream at the speed of the cache the operands sit in.
func BenchmarkElem(b *testing.B) {
	for _, c := range elemBenchCases {
		op := elemOps[elemOpIndex(c.op)]
		drift := elemBenchDrift[op.name]
		for _, fam := range testFamilies() {
			b.Run(fmt.Sprintf("%s/%dx%d/%s", op.name, c.rows, c.width, fam.name), func(b *testing.B) {
				r := &testRNG{s: 3}
				// The gate sweep runs once per batch row, each row on
				// operands of its own, as LSTM.backwardSweep issues it.
				sets, per := 1, c.rows*c.width
				if op.name == "LSTMBackwardStep" {
					sets, per = c.rows, c.width
				}
				operands, fresh := make([][][]float64, sets), make([][][]float64, sets)
				for s := range operands {
					for _, n := range op.lens(c.rows, c.width) {
						buf := make([]float64, n)
						for j := range buf {
							buf[j] = 0.5 + 0.4*r.next() // positive: Adam's v must have a square root
						}
						operands[s] = append(operands[s], buf)
						fresh[s] = append(fresh[s], append([]float64(nil), buf...))
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for s, bufs := range operands {
						for _, d := range drift {
							copy(bufs[d], fresh[s][d])
						}
						op.run(fam.isa, c.rows, c.width, bufs)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sets*per), "ns/elem")
			})
		}
	}
}
