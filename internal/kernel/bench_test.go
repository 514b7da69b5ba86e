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
