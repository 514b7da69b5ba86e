package kernel

import (
	"fmt"
	"math"
)

// The elementwise family: every loop of a training step that is not a
// GEMM or the forward gate sweep. Each op is the scalar loop,
// lane-parallel: the same IEEE add/sub/mul/div/sqrt in the same order
// per element, no FMA, no reassociation, no reciprocal approximation.
// The assembly bodies take whole vectors only (8 lanes on AVX-512, 4 on
// AVX2) and the pure-Go bodies below finish what is left, so nothing is
// read or written past a slice and the three families agree bit for bit
// on every input — which is what lets a training run hash identically
// whichever one a host dispatches to. The one liberty x86 itself takes:
// when two different NaNs meet in an add or a multiply, the payload that
// survives is the first operand's, and Go does not pin which that is in
// the scalar body.
//
// The float64(...) conversions in the Go bodies are the language's way
// of forbidding a fused multiply-add where a compiler would emit one
// (arm64, GOAMD64=v3).

// elemISA is the family the exported ops run on: the widest the host
// has. The unexported op(isa, …) forms are the tests' seam, like
// Config.gemm.
var elemISA = Config{}.isa()

// elemVec returns how many of n elements the family's assembly body
// takes: the whole vectors.
func elemVec(isa, n int) int {
	switch isa {
	case isaAVX512:
		return n &^ 7
	case isaAVX2:
		return n &^ 3
	}
	return 0
}

// AdamCoeffs are the per-step constants of an Adam update, worked out
// once by the optimizer so that the kernel does per-element work only.
type AdamCoeffs struct {
	Beta1, OneMinusBeta1 float64
	Beta2, OneMinusBeta2 float64
	Corr1, Corr2         float64 // bias corrections 1-β1^t and 1-β2^t
	LR, Eps              float64
}

// AdamStep applies one Adam update to the weights w from the gradient g
// and zeroes g, in one pass:
//
//	m = β1·m + (1-β1)·g,  v = β2·v + ((1-β2)·g)·g
//	w -= (lr·(m/corr1)) / (√(v/corr2) + ε),  g = 0
//
//podnas:hotpath
func AdamStep(w, g, m, v []float64, k *AdamCoeffs) { adamStep(elemISA, w, g, m, v, k) }

//podnas:hotpath
func adamStep(isa int, w, g, m, v []float64, k *AdamCoeffs) {
	n := len(w)
	if len(g) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("kernel: AdamStep lengths w %d g %d m %d v %d", n, len(g), len(m), len(v)))
	}
	done := elemVec(isa, n)
	if done > 0 {
		if isa == isaAVX512 {
			adamAVX512(&w[0], &g[0], &m[0], &v[0], k, int64(done))
		} else {
			adamAVX2(&w[0], &g[0], &m[0], &v[0], k, int64(done))
		}
	}
	for i := done; i < n; i++ {
		gi := g[i]
		mi := float64(k.Beta1*m[i]) + float64(k.OneMinusBeta1*gi)
		vi := float64(k.Beta2*v[i]) + float64(k.OneMinusBeta2*gi*gi)
		m[i], v[i] = mi, vi
		mhat := mi / k.Corr1
		vhat := vi / k.Corr2
		w[i] -= k.LR * mhat / (math.Sqrt(vhat) + k.Eps)
		g[i] = 0
	}
}

// LSTMBackwardStep is the fused per-row BPTT sweep matching
// LSTMForwardStep: gates (4H, activated, layout [i|f|g|o]), tanhC and
// cPrev (H; all zeros at t=0), dout (H, loss gradient at this step),
// dhn (H, recurrent hidden gradient carried from step t+1), dc (H, cell
// gradient carry, updated in place for step t-1), dz (4H, receives the
// pre-activation gate gradients).
//
//podnas:hotpath
func LSTMBackwardStep(gates, tanhC, cPrev, dout, dhn, dc, dz []float64) {
	lstmBackwardStep(elemISA, gates, tanhC, cPrev, dout, dhn, dc, dz)
}

//podnas:hotpath
func lstmBackwardStep(isa int, gates, tanhC, cPrev, dout, dhn, dc, dz []float64) {
	H := len(tanhC)
	if len(gates) != 4*H || len(dz) != 4*H || len(cPrev) != H || len(dout) != H || len(dhn) != H || len(dc) != H {
		panic(fmt.Sprintf("kernel: LSTMBackwardStep lengths gates %d tanhC %d cPrev %d dout %d dhn %d dc %d dz %d",
			len(gates), H, len(cPrev), len(dout), len(dhn), len(dc), len(dz)))
	}
	done := elemVec(isa, H)
	if done > 0 {
		if isa == isaAVX512 {
			lstmBwdAVX512(&gates[0], &tanhC[0], &cPrev[0], &dout[0], &dhn[0], &dc[0], &dz[0], int64(done), int64(H))
		} else {
			lstmBwdAVX2(&gates[0], &tanhC[0], &cPrev[0], &dout[0], &dhn[0], &dc[0], &dz[0], int64(done), int64(H))
		}
	}
	gi, gf, gg4, go4 := gates[:H], gates[H:2*H], gates[2*H:3*H], gates[3*H:4*H]
	for j := done; j < H; j++ {
		ig, fg, gg, og := gi[j], gf[j], gg4[j], go4[j]
		tc := tanhC[j]
		dh := dout[j] + dhn[j]
		do := dh * tc
		dcv := float64(dh*og*(1-float64(tc*tc))) + dc[j]
		di := dcv * gg
		dg := dcv * ig
		df := dcv * cPrev[j]
		dz[j] = di * ig * (1 - ig)
		dz[H+j] = df * fg * (1 - fg)
		dz[2*H+j] = dg * (1 - float64(gg*gg))
		dz[3*H+j] = do * og * (1 - og)
		dc[j] = dcv * fg
	}
}

// ReLU writes max(src, 0) into dst with the comparison's edge cases:
// NaN and -0 become +0, +Inf passes.
//
//podnas:hotpath
func ReLU(dst, src []float64) { relu(elemISA, dst, src) }

//podnas:hotpath
func relu(isa int, dst, src []float64) {
	n := len(dst)
	if len(src) != n {
		panic(fmt.Sprintf("kernel: ReLU lengths dst %d src %d", n, len(src)))
	}
	done := elemVec(isa, n)
	if done > 0 {
		if isa == isaAVX512 {
			reluAVX512(&dst[0], &src[0], int64(done))
		} else {
			reluAVX2(&dst[0], &src[0], int64(done))
		}
	}
	for i := done; i < n; i++ {
		if v := src[i]; v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// ReLUGrad gates dOut by the rectifier's forward output: dst is dOut
// where out > 0 and +0 elsewhere (so where the forward input was NaN,
// zero or negative).
//
//podnas:hotpath
func ReLUGrad(dst, out, dOut []float64) { reluGrad(elemISA, dst, out, dOut) }

//podnas:hotpath
func reluGrad(isa int, dst, out, dOut []float64) {
	n := len(dst)
	if len(out) != n || len(dOut) != n {
		panic(fmt.Sprintf("kernel: ReLUGrad lengths dst %d out %d dOut %d", n, len(out), len(dOut)))
	}
	done := elemVec(isa, n)
	if done > 0 {
		if isa == isaAVX512 {
			reluGradAVX512(&dst[0], &out[0], &dOut[0], int64(done))
		} else {
			reluGradAVX2(&dst[0], &out[0], &dOut[0], int64(done))
		}
	}
	for i := done; i < n; i++ {
		if out[i] > 0 {
			dst[i] = dOut[i]
		} else {
			dst[i] = 0
		}
	}
}

// AddTo computes dst += src elementwise.
//
//podnas:hotpath
func AddTo(dst, src []float64) { addTo(elemISA, dst, src) }

//podnas:hotpath
func addTo(isa int, dst, src []float64) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("kernel: AddTo lengths dst %d src %d", len(dst), len(src)))
	}
	addStrided(isa, dst, src, 1, len(dst), 0, 0)
}

// AddRows adds bias (length width) to each of the rows of dst, a dense
// rows×width matrix: the bias broadcast of an affine layer.
//
//podnas:hotpath
func AddRows(dst, bias []float64, rows, width int) { addRows(elemISA, dst, bias, rows, width) }

//podnas:hotpath
func addRows(isa int, dst, bias []float64, rows, width int) {
	if rows < 0 || len(dst) != rows*width || len(bias) != width {
		panic(fmt.Sprintf("kernel: AddRows %dx%d over %d floats, bias %d", rows, width, len(dst), len(bias)))
	}
	addStrided(isa, dst, bias, rows, width, width, 0)
}

// SumRows adds each of the rows of data, a dense rows×width matrix, to
// acc (length width), row 0 first: the column sum that is a bias
// gradient, every column summed in row order.
//
//podnas:hotpath
func SumRows(acc, data []float64, rows, width int) { sumRows(elemISA, acc, data, rows, width) }

//podnas:hotpath
func sumRows(isa int, acc, data []float64, rows, width int) {
	if rows < 0 || len(data) != rows*width || len(acc) != width {
		panic(fmt.Sprintf("kernel: SumRows %dx%d over %d floats, acc %d", rows, width, len(data), len(acc)))
	}
	addStrided(isa, acc, data, rows, width, 0, width)
}

// addStrided is the one loop behind AddTo, AddRows and SumRows: for each
// of rows rows, dst[j] += src[j] over width columns, after which dst
// and src move on by their strides (0 holds an operand in place). The
// callers have checked that the last row ends inside both slices.
//
//podnas:hotpath
func addStrided(isa int, dst, src []float64, rows, width, dstStride, srcStride int) {
	if rows == 0 || width == 0 {
		return
	}
	done := elemVec(isa, width)
	if done > 0 {
		if isa == isaAVX512 {
			addRowsAVX512(&dst[0], &src[0], int64(rows), int64(done), int64(dstStride), int64(srcStride))
		} else {
			addRowsAVX2(&dst[0], &src[0], int64(rows), int64(done), int64(dstStride), int64(srcStride))
		}
	}
	if done == width {
		return
	}
	for r := 0; r < rows; r++ {
		d, s := dst[r*dstStride:][:width], src[r*srcStride:][:width]
		for j := done; j < width; j++ {
			d[j] += s[j]
		}
	}
}
