package kernel

import (
	"fmt"
	"math"
	"testing"
)

// The scalar transcriptions below are the loops the elementwise family
// replaced, kept here as its oracle; every family must reproduce them
// bit for bit. The float64(...) conversions pin them, like the family's
// own Go body, to unfused multiplies under any GOAMD64.

func refAdamStep(w, g, m, v []float64, k *AdamCoeffs) {
	for i, gi := range g {
		m[i] = float64(k.Beta1*m[i]) + float64(k.OneMinusBeta1*gi)
		v[i] = float64(k.Beta2*v[i]) + float64(k.OneMinusBeta2*gi*gi)
		mhat := m[i] / k.Corr1
		vhat := v[i] / k.Corr2
		w[i] -= k.LR * mhat / (math.Sqrt(vhat) + k.Eps)
	}
	for i := range g {
		g[i] = 0
	}
}

func refLSTMBackwardStep(gates, tanhC, cPrev, dout, dhn, dc, dz []float64) {
	H := len(tanhC)
	for j := 0; j < H; j++ {
		ig, fg, gg, og := gates[j], gates[H+j], gates[2*H+j], gates[3*H+j]
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

func refReLU(dst, src []float64) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// refReLUGrad gates by out > 0, which for out = relu(x) is the x > 0 the
// layer's []bool mask used to record.
func refReLUGrad(dst, out, dOut []float64) {
	for i, v := range dOut {
		if out[i] > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

func refAddTo(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

func refAddRows(data, bias []float64, rows, width int) {
	for i := 0; i < rows; i++ {
		dst := data[i*width : (i+1)*width]
		for j, b := range bias {
			dst[j] += b
		}
	}
}

func refSumRows(acc, data []float64, rows, width int) {
	for i := 0; i < rows; i++ {
		src := data[i*width : (i+1)*width]
		for j, v := range src {
			acc[j] += v
		}
	}
}

// testAdam is a third-step update with the paper's constants.
var testAdam = AdamCoeffs{
	Beta1: 0.9, OneMinusBeta1: 1 - 0.9,
	Beta2: 0.999, OneMinusBeta2: 1 - 0.999,
	Corr1: 1 - 0.9*0.9*0.9, Corr2: 1 - 0.999*0.999*0.999,
	LR: 1e-3, Eps: 1e-8,
}

// elemOp is one op of the family as the tests drive it: the operand
// lengths of a rows×width problem (the one-dimensional ops take
// rows·width elements; the gate sweep takes H = width and ignores rows),
// the family's body and the scalar transcription, both over the operands
// in lens order.
type elemOp struct {
	name string
	lens func(rows, width int) []int
	run  func(isa, rows, width int, b [][]float64)
	ref  func(rows, width int, b [][]float64)
}

func flat(k int) func(rows, width int) []int {
	return func(rows, width int) []int {
		lens := make([]int, k)
		for i := range lens {
			lens[i] = rows * width
		}
		return lens
	}
}

var elemOps = []elemOp{
	{
		name: "AdamStep", lens: flat(4),
		run: func(isa, _, _ int, b [][]float64) { adamStep(isa, b[0], b[1], b[2], b[3], &testAdam) },
		ref: func(_, _ int, b [][]float64) { refAdamStep(b[0], b[1], b[2], b[3], &testAdam) },
	},
	{
		name: "LSTMBackwardStep",
		lens: func(_, H int) []int { return []int{4 * H, H, H, H, H, H, 4 * H} },
		run: func(isa, _, _ int, b [][]float64) {
			lstmBackwardStep(isa, b[0], b[1], b[2], b[3], b[4], b[5], b[6])
		},
		ref: func(_, _ int, b [][]float64) { refLSTMBackwardStep(b[0], b[1], b[2], b[3], b[4], b[5], b[6]) },
	},
	{
		name: "ReLU", lens: flat(2),
		run: func(isa, _, _ int, b [][]float64) { relu(isa, b[0], b[1]) },
		ref: func(_, _ int, b [][]float64) { refReLU(b[0], b[1]) },
	},
	{
		name: "ReLUGrad", lens: flat(3),
		run: func(isa, _, _ int, b [][]float64) { reluGrad(isa, b[0], b[1], b[2]) },
		ref: func(_, _ int, b [][]float64) { refReLUGrad(b[0], b[1], b[2]) },
	},
	{
		name: "AddTo", lens: flat(2),
		run: func(isa, _, _ int, b [][]float64) { addTo(isa, b[0], b[1]) },
		ref: func(_, _ int, b [][]float64) { refAddTo(b[0], b[1]) },
	},
	{
		name: "AddRows",
		lens: func(rows, width int) []int { return []int{rows * width, width} },
		run:  func(isa, rows, width int, b [][]float64) { addRows(isa, b[0], b[1], rows, width) },
		ref:  func(rows, width int, b [][]float64) { refAddRows(b[0], b[1], rows, width) },
	},
	{
		name: "SumRows",
		lens: func(rows, width int) []int { return []int{width, rows * width} },
		run:  func(isa, rows, width int, b [][]float64) { sumRows(isa, b[0], b[1], rows, width) },
		ref:  func(rows, width int, b [][]float64) { refSumRows(b[0], b[1], rows, width) },
	},
}

// elemOpIndex returns the position in elemOps of the op called name.
func elemOpIndex(name string) int {
	for i, op := range elemOps {
		if op.name == name {
			return i
		}
	}
	panic("no elementwise op " + name)
}

// nanBits is the salted NaN: quiet, with a payload no arithmetic makes.
const nanBits = 0x7ff8_0bad_cafe_0042

// saltInf salts every operand with ±Inf (and no NaN); a salt s ≥ 0 salts
// operand s mod len with NaNs and leaves the others finite. Either way
// every operand also gets ±0 and denormals. The two never mix because
// what x86 returns when two different NaNs — a salted one and the
// default one Inf-Inf or 0·Inf makes — meet in an add or a multiply is
// its first operand, which Go's compiler is free to pick (see elem.go).
const saltInf = -1

func (r *testRNG) intn(n int) int { return int((r.next() + 1) / 2 * float64(n)) }

func saltOperands(r *testRNG, bufs [][]float64, salt int) {
	for bi, b := range bufs {
		for j := range b {
			switch r.intn(12) {
			case 0:
				b[j] = 0 // Adam's v = 0 and g = 0 among others
			case 1:
				b[j] = math.Copysign(0, -1)
			case 2:
				b[j] = math.Copysign(float64(1+r.intn(1000))*5e-324, b[j])
			case 3:
				if salt == saltInf {
					b[j] = math.Inf(1 - 2*r.intn(2))
				} else if bi == salt%len(bufs) {
					b[j] = math.Float64frombits(nanBits)
				}
			}
		}
	}
}

// check runs the op on one family over operands from alloc — random,
// salted — and requires every operand, written or not, to come back with
// the bits the scalar transcription leaves.
func (op elemOp) check(t testing.TB, fam family, rows, width int, seed uint64, salt int, alloc func(n int) []float64) {
	t.Helper()
	r := &testRNG{s: seed}
	lens := op.lens(rows, width)
	got, want := make([][]float64, len(lens)), make([][]float64, len(lens))
	for i, n := range lens {
		got[i] = alloc(n)
		for j := range got[i] {
			got[i][j] = r.next()
		}
	}
	saltOperands(r, got, salt)
	for i := range got {
		want[i] = append([]float64(nil), got[i]...)
	}
	op.run(fam.isa, rows, width, got)
	op.ref(rows, width, want)
	for i := range got {
		for j := range got[i] {
			if g, w := math.Float64bits(got[i][j]), math.Float64bits(want[i][j]); g != w {
				t.Fatalf("%s/%s %dx%d salt %d: operand %d[%d] = %x (%g), want %x (%g)",
					op.name, fam.name, rows, width, salt, i, j, g, got[i][j], w, want[i][j])
			}
		}
	}
}

// TestElemBitwise holds every op on every family the host has to the
// scalar transcription, bit for bit, over lengths 0…70 — no vector,
// whole vectors and ragged tails of both widths, H = 5 and its 4H = 20
// included — with the operands salted every way saltOperands knows, and
// checks that nothing was written outside them.
func TestElemBitwise(t *testing.T) {
	for _, fam := range testFamilies() {
		for _, op := range elemOps {
			t.Run(op.name+"/"+fam.name, func(t *testing.T) {
				for n := 0; n <= 70; n++ {
					for _, rows := range []int{1, 3} {
						for salt := saltInf; salt < len(op.lens(1, 1)); salt++ {
							var ma margins
							op.check(t, fam, rows, n, uint64(n*31+rows), salt, ma.alloc)
							ma.verify(t, fmt.Sprintf("%s/%s %dx%d", op.name, fam.name, rows, n))
						}
					}
				}
				op.check(t, fam, 0, 24, 1, saltInf, heap) // no rows at all
			})
		}
	}
}

// TestElemShapePanics: the ops check operand lengths before any
// assembly dereferences them.
func TestElemShapePanics(t *testing.T) {
	f := func(n int) []float64 { return make([]float64, n) }
	cases := map[string]func(){
		"AdamStep":         func() { AdamStep(f(8), f(8), f(7), f(8), &testAdam) },
		"LSTMBackwardStep": func() { LSTMBackwardStep(f(32), f(8), nil, f(8), f(8), f(8), f(32)) },
		"ReLU":             func() { ReLU(f(8), f(9)) },
		"ReLUGrad":         func() { ReLUGrad(f(8), f(8), f(9)) },
		"AddTo":            func() { AddTo(f(8), f(16)) },
		"AddRows":          func() { AddRows(f(16), f(8), 3, 8) },
		"SumRows":          func() { SumRows(f(8), f(16), 3, 8) },
	}
	for name, call := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched operands", name)
				}
			}()
			call()
		}()
	}
}
