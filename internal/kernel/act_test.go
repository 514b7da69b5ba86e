package kernel

import (
	"math"
	"testing"
)

// refForwardStep is the scalar library-function step the fused sweep
// must match to well under the 1e-9 fused-vs-reference contract.
func refForwardStep(z, cPrev, c, tanhC, h []float64) {
	H := len(cPrev)
	sig := func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
	for j := 0; j < H; j++ {
		ig := sig(z[j])
		fg := sig(z[H+j])
		gg := math.Tanh(z[2*H+j])
		og := sig(z[3*H+j])
		z[j], z[H+j], z[2*H+j], z[3*H+j] = ig, fg, gg, og
		cv := fg*cPrev[j] + ig*gg
		c[j] = cv
		tc := math.Tanh(cv)
		tanhC[j] = tc
		h[j] = og * tc
	}
}

func TestLSTMForwardStepAccuracy(t *testing.T) {
	const H = 257
	r := &testRNG{s: 42}
	z := make([]float64, 4*H)
	cPrev := make([]float64, H)
	for i := range z {
		z[i] = r.next() * 12 // spans the fast-exp range and beyond typical use
	}
	for i := range cPrev {
		cPrev[i] = r.next()
	}
	z2 := append([]float64(nil), z...)
	c1, tc1, h1 := make([]float64, H), make([]float64, H), make([]float64, H)
	c2, tc2, h2 := make([]float64, H), make([]float64, H), make([]float64, H)
	LSTMForwardStep(z, cPrev, c1, tc1, h1)
	refForwardStep(z2, cPrev, c2, tc2, h2)
	check := func(name string, a, b []float64) {
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > 1e-13 {
				t.Fatalf("%s[%d]: fused %g vs ref %g (diff %g)", name, i, a[i], b[i], d)
			}
		}
	}
	check("gates", z, z2)
	check("c", c1, c2)
	check("tanhC", tc1, tc2)
	check("h", h1, h2)
}

// TestLSTMForwardStepMixedSaturation drives the sweep over a vector
// with saturated and non-finite lanes scattered through the middle, so
// on AVX-512 machines the vector loop must bail to the scalar slow path
// and resume — every group boundary case in one shot.
func TestLSTMForwardStepMixedSaturation(t *testing.T) {
	const H = 131
	r := &testRNG{s: 7}
	z := make([]float64, 4*H)
	cPrev := make([]float64, H)
	for i := range z {
		z[i] = r.next() * 6
	}
	for i := range cPrev {
		cPrev[i] = r.next()
	}
	// Saturate assorted lanes of each gate block and poison one with NaN.
	for _, j := range []int{3, 17, 18, 64, 100, 130} {
		z[j] = 80 * r.next() * 10
	}
	z[2*H+40] = 25  // g gate beyond its tighter bound
	z[3*H+77] = -90 // o gate deep negative
	z[H+55] = math.Inf(-1)
	z[90] = math.NaN()
	z2 := append([]float64(nil), z...)
	c1, tc1, h1 := make([]float64, H), make([]float64, H), make([]float64, H)
	c2, tc2, h2 := make([]float64, H), make([]float64, H), make([]float64, H)
	LSTMForwardStep(z, cPrev, c1, tc1, h1)
	refForwardStep(z2, cPrev, c2, tc2, h2)
	check := func(name string, a, b []float64) {
		for i := range a {
			if math.IsNaN(b[i]) {
				if !math.IsNaN(a[i]) {
					t.Fatalf("%s[%d]: fused %g, ref NaN", name, i, a[i])
				}
				continue
			}
			if d := math.Abs(a[i] - b[i]); d > 1e-13 {
				t.Fatalf("%s[%d]: fused %g vs ref %g (diff %g)", name, i, a[i], b[i], d)
			}
		}
	}
	check("gates", z, z2)
	check("c", c1, c2)
	check("tanhC", tc1, tc2)
	check("h", h1, h2)
}

// TestLSTMForwardScalarAccuracy pins the portable sweep directly, so the
// non-SIMD path stays covered on machines where LSTMForwardStep
// dispatches to the vector kernel.
func TestLSTMForwardScalarAccuracy(t *testing.T) {
	const H = 113
	r := &testRNG{s: 11}
	z := make([]float64, 4*H)
	cPrev := make([]float64, H)
	for i := range z {
		z[i] = r.next() * 12
	}
	for i := range cPrev {
		cPrev[i] = r.next()
	}
	z2 := append([]float64(nil), z...)
	c1, tc1, h1 := make([]float64, H), make([]float64, H), make([]float64, H)
	c2, tc2, h2 := make([]float64, H), make([]float64, H), make([]float64, H)
	lstmFwdScalar(z, cPrev, c1, tc1, h1, 0, H)
	refForwardStep(z2, cPrev, c2, tc2, h2)
	for i := range h1 {
		if math.Abs(h1[i]-h2[i]) > 1e-13 || math.Abs(tc1[i]-tc2[i]) > 1e-13 {
			t.Fatalf("scalar sweep diverges at %d: h %g vs %g", i, h1[i], h2[i])
		}
	}
}

// TestLSTMForwardStepExtremes: saturated pre-activations take the slow
// path and keep library semantics, and non-finite inputs propagate
// instead of silently producing garbage.
func TestLSTMForwardStepExtremes(t *testing.T) {
	const H = 4
	z := []float64{
		1000, -1000, math.Inf(1), math.NaN(), // i gates
		50, -50, 0, 1, // f gates
		30, -30, 2, -2, // g gates
		41, -41, 0.5, -0.5, // o gates
	}
	cPrev := []float64{1, -1, 0.5, 0.25}
	c := make([]float64, H)
	tc := make([]float64, H)
	h := make([]float64, H)
	LSTMForwardStep(z, cPrev, c, tc, h)
	if math.Abs(z[0]-1) > 1e-15 || math.Abs(z[1]) > 1e-15 {
		t.Fatalf("saturated sigmoid: got %g, %g want 1, 0", z[0], z[1])
	}
	if math.Abs(z[2]-1) > 1e-15 {
		t.Fatalf("sigmoid(+Inf) = %g, want 1", z[2])
	}
	if !math.IsNaN(z[3]) || !math.IsNaN(c[3]) || !math.IsNaN(h[3]) {
		t.Fatalf("NaN pre-activation must propagate: gate %g c %g h %g", z[3], c[3], h[3])
	}
	if math.Abs(z[8]-1) > 1e-13 || math.Abs(z[9]+1) > 1e-13 {
		t.Fatalf("saturated tanh gate: got %g, %g want ±1", z[8], z[9])
	}
}

// TestLSTMBackwardStepMatchesScalar mirrors the fused backward sweep, on
// every family, against the straight transcription of the unfused
// per-element formulas (refLSTMBackwardStep) on gate values as a forward
// pass leaves them — at a ragged H, with a real previous cell state and
// with the zeros that stand in for it at t = 0.
func TestLSTMBackwardStepMatchesScalar(t *testing.T) {
	const H = 33
	for _, fam := range testFamilies() {
		for _, zeroPrev := range []bool{false, true} {
			r := &testRNG{s: 9}
			gates := make([]float64, 4*H)
			for j := 0; j < H; j++ {
				gates[j] = 0.5 + 0.4*r.next()
				gates[H+j] = 0.5 + 0.4*r.next()
				gates[2*H+j] = 0.9 * r.next()
				gates[3*H+j] = 0.5 + 0.4*r.next()
			}
			tanhC := make([]float64, H)
			cPrev := make([]float64, H)
			dout := make([]float64, H)
			dhn := make([]float64, H)
			dc := make([]float64, H)
			for j := 0; j < H; j++ {
				tanhC[j] = 0.9 * r.next()
				cPrev[j] = r.next()
				dout[j] = r.next()
				dhn[j] = r.next()
				dc[j] = r.next()
			}
			if zeroPrev {
				clear(cPrev)
			}
			dcWant := append([]float64(nil), dc...)
			dzWant := make([]float64, 4*H)
			refLSTMBackwardStep(gates, tanhC, cPrev, dout, dhn, dcWant, dzWant)
			dz := make([]float64, 4*H)
			lstmBackwardStep(fam.isa, gates, tanhC, cPrev, dout, dhn, dc, dz)
			for i := range dz {
				if math.Float64bits(dz[i]) != math.Float64bits(dzWant[i]) {
					t.Fatalf("%s zeroPrev=%v: dz[%d] = %g want %g", fam.name, zeroPrev, i, dz[i], dzWant[i])
				}
			}
			for i := range dc {
				if math.Float64bits(dc[i]) != math.Float64bits(dcWant[i]) {
					t.Fatalf("%s zeroPrev=%v: dc[%d] = %g want %g", fam.name, zeroPrev, i, dc[i], dcWant[i])
				}
			}
			if zeroPrev {
				for j := H; j < 2*H; j++ {
					if dz[j] != 0 {
						t.Fatalf("%s: forget-gate gradient dz[%d] = %g at t = 0, want 0", fam.name, j, dz[j])
					}
				}
			}
		}
	}
}
