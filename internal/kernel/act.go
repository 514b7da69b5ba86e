package kernel

import "math"

// Fast-exponential constants: table-accelerated range reduction in the
// fdlibm style. x = (32·i + j)·(ln2/32) + r with |r| ≤ ln2/64, so
// e^x = 2^i · 2^(j/32) · e^r where 2^(j/32) comes from a 32-entry table
// and e^r needs only a degree-6 Taylor polynomial for ~2 ulp accuracy.
// The Cody–Waite hi/lo split of ln2/32 keeps k·ln2/32 exact in the
// leading bits (k ≤ 2^11 here, hi has ~20 trailing zero bits).
const (
	log2e     = 1.4426950408889634074
	ln2Hi     = 6.93147180369123816490e-01
	ln2Lo     = 1.90821492927058770002e-10
	invLn2x32 = 32 * log2e
	ln2x32Hi  = ln2Hi / 32 // exact: scaling by 2^-5 keeps trailing zeros
	ln2x32Lo  = ln2Lo / 32
	expSat    = 40.0 // |x| beyond this takes the slow math.Exp path
)

// exp2Tab[j] = 2^(j/32).
var exp2Tab [32]float64

func init() {
	for j := range exp2Tab {
		exp2Tab[j] = math.Exp2(float64(j) / 32)
	}
}

// exp4 computes four exponentials with interleaved Horner chains, which
// hides the chain latency the scalar loop is bound by. Inputs must
// satisfy |x| < 64 (callers guard with expSat, keeping k within the
// exact Cody–Waite range); non-finite inputs take the slow path before
// reaching here.
//
//podnas:hotpath
func exp4(x0, x1, x2, x3 float64) (e0, e1, e2, e3 float64) {
	k0 := math.Floor(x0*invLn2x32 + 0.5)
	k1 := math.Floor(x1*invLn2x32 + 0.5)
	k2 := math.Floor(x2*invLn2x32 + 0.5)
	k3 := math.Floor(x3*invLn2x32 + 0.5)
	r0 := (x0 - k0*ln2x32Hi) - k0*ln2x32Lo
	r1 := (x1 - k1*ln2x32Hi) - k1*ln2x32Lo
	r2 := (x2 - k2*ln2x32Hi) - k2*ln2x32Lo
	r3 := (x3 - k3*ln2x32Hi) - k3*ln2x32Lo
	p0 := 1.0 / 720.0
	p1 := 1.0 / 720.0
	p2 := 1.0 / 720.0
	p3 := 1.0 / 720.0
	p0 = p0*r0 + 1.0/120.0
	p1 = p1*r1 + 1.0/120.0
	p2 = p2*r2 + 1.0/120.0
	p3 = p3*r3 + 1.0/120.0
	p0 = p0*r0 + 1.0/24.0
	p1 = p1*r1 + 1.0/24.0
	p2 = p2*r2 + 1.0/24.0
	p3 = p3*r3 + 1.0/24.0
	p0 = p0*r0 + 1.0/6.0
	p1 = p1*r1 + 1.0/6.0
	p2 = p2*r2 + 1.0/6.0
	p3 = p3*r3 + 1.0/6.0
	p0 = p0*r0 + 0.5
	p1 = p1*r1 + 0.5
	p2 = p2*r2 + 0.5
	p3 = p3*r3 + 0.5
	p0 = p0*r0 + 1
	p1 = p1*r1 + 1
	p2 = p2*r2 + 1
	p3 = p3*r3 + 1
	p0 = p0*r0 + 1
	p1 = p1*r1 + 1
	p2 = p2*r2 + 1
	p3 = p3*r3 + 1
	i0, i1, i2, i3 := int64(k0), int64(k1), int64(k2), int64(k3)
	e0 = p0 * exp2Tab[i0&31] * math.Float64frombits(uint64((i0>>5)+1023)<<52)
	e1 = p1 * exp2Tab[i1&31] * math.Float64frombits(uint64((i1>>5)+1023)<<52)
	e2 = p2 * exp2Tab[i2&31] * math.Float64frombits(uint64((i2>>5)+1023)<<52)
	e3 = p3 * exp2Tab[i3&31] * math.Float64frombits(uint64((i3>>5)+1023)<<52)
	return
}

// LSTMForwardStep applies one fused LSTM timestep for one batch row.
// z (length 4H, gate layout [i|f|g|o]) holds the pre-activations and is
// overwritten with the activated gates; cPrev (length H) is the
// previous cell state (all zeros at t=0); c, tanhC, h (length H each)
// receive the new cell state, its tanh, and the hidden output:
//
//	i = σ(z_i), f = σ(z_f), g = tanh(z_g), o = σ(z_o)
//	c = f∘cPrev + i∘g,  h = o∘tanh(c)
//
// The four gate exponentials run 8-wide on AVX-512 (one vector exp per
// gate block plus one for the cell tanh) and as interleaved scalar
// fast-exp chains elsewhere; any saturated or non-finite pre-activation
// falls back to math.Exp/Tanh, so extreme inputs keep library semantics
// (σ→{0,1}, NaN propagates). SIMD and scalar sweeps agree to rounding,
// not bitwise — same contract as the GEMM micro-kernels.
//
//podnas:hotpath
func LSTMForwardStep(z, cPrev, c, tanhC, h []float64) {
	H := len(cPrev)
	j := 0
	if hasAVX512 {
		for H-j >= 8 {
			j += int(lstmFwdAVX512(&z[j], &cPrev[j], &c[j], &tanhC[j], &h[j],
				int64(H-j), int64(H)))
			if H-j < 8 {
				break
			}
			// The next group holds a saturated or non-finite lane: run
			// just that group through the scalar slow-path-aware sweep.
			lstmFwdScalar(z, cPrev, c, tanhC, h, j, j+8)
			j += 8
		}
	}
	lstmFwdScalar(z, cPrev, c, tanhC, h, j, H)
}

// lstmFwdScalar is the portable gate sweep over elements [lo, hi); it
// doubles as the slow path for saturated and non-finite lanes.
//
//podnas:hotpath
func lstmFwdScalar(z, cPrev, c, tanhC, h []float64, lo, hi int) {
	H := len(cPrev)
	zi, zf, zg, zo := z[:H], z[H:2*H], z[2*H:3*H], z[3*H:4*H]
	// Pass 1: gate activations and the new cell state.
	for j := lo; j < hi; j++ {
		xi, xf, xg, xo := zi[j], zf[j], zg[j], zo[j]
		var ig, fg, gg, og float64
		if !(math.Abs(xi) < expSat) || !(math.Abs(xf) < expSat) ||
			!(math.Abs(xg) < expSat/2) || !(math.Abs(xo) < expSat) {
			ig = 1 / (1 + math.Exp(-xi))
			fg = 1 / (1 + math.Exp(-xf))
			gg = math.Tanh(xg)
			og = 1 / (1 + math.Exp(-xo))
		} else {
			e0, e1, e2, e3 := exp4(-xi, -xf, -2*xg, -xo)
			// One reciprocal covers all four denominators: 1/d_k is the
			// inverse of the product times the other three factors.
			d0, d1, d2, d3 := 1+e0, 1+e1, 1+e2, 1+e3
			d01, d23 := d0*d1, d2*d3
			inv := 1 / (d01 * d23)
			inv01, inv23 := inv*d23, inv*d01
			ig = inv01 * d1
			fg = inv01 * d0
			gg = (1 - e2) * (inv23 * d3)
			og = inv23 * d2
		}
		zi[j], zf[j], zg[j], zo[j] = ig, fg, gg, og
		c[j] = fg*cPrev[j] + ig*gg
	}
	// Pass 2: tanh of the cell states four lanes at a time through the
	// same fast-exp chains (tanh x = (1-e)/(1+e), e = exp(-2x)), then the
	// hidden output. Saturated or non-finite cells take math.Tanh.
	j := lo
	for ; j+4 <= hi; j += 4 {
		c0, c1, c2, c3 := c[j], c[j+1], c[j+2], c[j+3]
		if !(math.Abs(c0) < expSat/2) || !(math.Abs(c1) < expSat/2) ||
			!(math.Abs(c2) < expSat/2) || !(math.Abs(c3) < expSat/2) {
			for k := j; k < j+4; k++ {
				tc := math.Tanh(c[k])
				tanhC[k] = tc
				h[k] = zo[k] * tc
			}
			continue
		}
		e0, e1, e2, e3 := exp4(-2*c0, -2*c1, -2*c2, -2*c3)
		d0, d1, d2, d3 := 1+e0, 1+e1, 1+e2, 1+e3
		d01, d23 := d0*d1, d2*d3
		inv := 1 / (d01 * d23)
		inv01, inv23 := inv*d23, inv*d01
		t0 := (1 - e0) * (inv01 * d1)
		t1 := (1 - e1) * (inv01 * d0)
		t2 := (1 - e2) * (inv23 * d3)
		t3 := (1 - e3) * (inv23 * d2)
		tanhC[j], tanhC[j+1], tanhC[j+2], tanhC[j+3] = t0, t1, t2, t3
		h[j] = zo[j] * t0
		h[j+1] = zo[j+1] * t1
		h[j+2] = zo[j+2] * t2
		h[j+3] = zo[j+3] * t3
	}
	for ; j < hi; j++ {
		tc := math.Tanh(c[j])
		tanhC[j] = tc
		h[j] = zo[j] * tc
	}
}
