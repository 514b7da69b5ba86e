package nn

import (
	"fmt"
	"math"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// This file preserves the pre-kernel compute path as test-only Layer
// implementations: the oracle the shipped kernel path is diffed against
// (TestFusedMatchesReferenceGradients) and the baseline of the
// `reference` sub-benchmarks. Four-pass scalar gate loops, library
// sigmoid/tanh, StepInto copies, and an allocation per step; the GEMMs go
// through kernel.RefGemm, which keeps the original scalar accumulation
// order. The layers share the graph's *Params, so weights, gradients and
// optimizer steps land where the shipped layers would put them.

// useReferenceLayers swaps every Dense, ReLU and LSTM of g for its
// pre-kernel counterpart over the same parameters.
func useReferenceLayers(g *Graph) {
	for _, node := range g.nodes {
		for j, p := range node.proj {
			d := p.(*Dense)
			node.proj[j] = &refDense{in: d.in, out: d.out, W: d.W, B: d.B}
		}
		if node.relu != nil {
			node.relu = &refReLU{dim: node.relu.InDim()}
		}
		switch body := node.body.(type) {
		case *LSTM:
			node.body = &refLSTM{in: body.in, hidden: body.hidden, Wx: body.Wx, Wh: body.Wh, B: body.B}
		case *Identity:
		default:
			panic(fmt.Sprintf("nn: no reference layer for %T", body))
		}
	}
}

// refMatMulInto computes dst = a×b with pre-kernel scalar semantics.
func refMatMulInto(dst, a, b *tensor.Matrix) {
	kernel.RefGemm(dst.Kern(), a.Kern(), b.Kern(), false, false, false)
}

// refMatMul computes a×b into a fresh matrix with pre-kernel semantics.
func refMatMul(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(a.Rows, b.Cols)
	refMatMulInto(out, a, b)
	return out
}

// refMatMulTransB computes a×bᵀ with pre-kernel semantics.
func refMatMulTransB(a, b *tensor.Matrix) *tensor.Matrix {
	out := tensor.NewMatrix(a.Rows, b.Rows)
	kernel.RefGemm(out.Kern(), a.Kern(), b.Kern(), false, true, false)
	return out
}

// refMatMulTransAAddInto computes dst += aᵀ×b with pre-kernel semantics.
func refMatMulTransAAddInto(dst, a, b *tensor.Matrix) {
	kernel.RefGemm(dst.Kern(), a.Kern(), b.Kern(), true, false, true)
}

// refAddBiasRows and refSumGradRows are the pre-kernel bias broadcast and
// bias-gradient column sum.
func refAddBiasRows(data, bias []float64, rows, width int) {
	for i := 0; i < rows; i++ {
		dst := data[i*width : (i+1)*width]
		for j, b := range bias {
			dst[j] += b
		}
	}
}

func refSumGradRows(acc, data []float64, rows, width int) {
	for i := 0; i < rows; i++ {
		src := data[i*width : (i+1)*width]
		for j, v := range src {
			acc[j] += v
		}
	}
}

// refDense is the pre-kernel Dense layer.
type refDense struct {
	in, out int
	W, B    *Param
	x       *tensor.Tensor3
}

func (l *refDense) Forward(x *tensor.Tensor3) *tensor.Tensor3 {
	l.x = x
	out := tensor.NewTensor3(x.B, x.T, l.out)
	w := tensor.FromSlice(l.in, l.out, l.W.W)
	refMatMulInto(out.AsMatrix(), x.AsMatrix(), w)
	refAddBiasRows(out.Data, l.B.W, x.B*x.T, l.out)
	return out
}

func (l *refDense) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	dw := tensor.FromSlice(l.in, l.out, l.W.G)
	refMatMulTransAAddInto(dw, l.x.AsMatrix(), dOut.AsMatrix())
	refSumGradRows(l.B.G, dOut.Data, dOut.B*dOut.T, l.out)
	dx := tensor.NewTensor3(l.x.B, l.x.T, l.in)
	w := tensor.FromSlice(l.in, l.out, l.W.W)
	dxm := refMatMulTransB(dOut.AsMatrix(), w)
	copy(dx.Data, dxm.Data)
	return dx
}

func (l *refDense) Params() []*Param { return []*Param{l.W, l.B} }
func (l *refDense) InDim() int       { return l.in }
func (l *refDense) OutDim() int      { return l.out }

// refReLU is the pre-kernel ReLU layer.
type refReLU struct {
	dim  int
	mask []bool
}

func (l *refReLU) Forward(x *tensor.Tensor3) *tensor.Tensor3 {
	out := tensor.NewTensor3(x.B, x.T, x.F)
	l.mask = make([]bool, len(x.Data))
	for i, v := range x.Data {
		if v > 0 {
			l.mask[i] = true
			out.Data[i] = v
		}
	}
	return out
}

func (l *refReLU) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	dx := tensor.NewTensor3(dOut.B, dOut.T, dOut.F)
	for i, v := range dOut.Data {
		if l.mask[i] {
			dx.Data[i] = v
		}
	}
	return dx
}

func (l *refReLU) Params() []*Param { return nil }
func (l *refReLU) InDim() int       { return l.dim }
func (l *refReLU) OutDim() int      { return l.dim }

// refLSTM is the pre-kernel LSTM layer.
type refLSTM struct {
	in, hidden int
	Wx, Wh, B  *Param

	x                       *tensor.Tensor3
	gates, cells, tanhC, hs *tensor.Tensor3
}

func (l *refLSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }
func (l *refLSTM) InDim() int       { return l.in }
func (l *refLSTM) OutDim() int      { return l.hidden }

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward is the pre-kernel LSTM forward pass.
func (l *refLSTM) Forward(x *tensor.Tensor3) *tensor.Tensor3 {
	b, t, h := x.B, x.T, l.hidden
	l.x = x
	l.gates = tensor.NewTensor3(b, t, 4*h)
	l.cells = tensor.NewTensor3(b, t, h)
	l.tanhC = tensor.NewTensor3(b, t, h)
	l.hs = tensor.NewTensor3(b, t, h)

	// Input contribution for every timestep in one GEMM: (B·T,F)·(F,4H).
	wx := tensor.FromSlice(l.in, 4*h, l.Wx.W)
	zAll := refMatMul(x.AsMatrix(), wx)

	wh := tensor.FromSlice(h, 4*h, l.Wh.W)
	hPrev := tensor.NewMatrix(b, h)  // h_{t-1}, zero at t=0
	zRec := tensor.NewMatrix(b, 4*h) // recurrent contribution buffer
	cPrev := tensor.NewMatrix(b, h)  // c_{t-1}, zero at t=0

	for step := 0; step < t; step++ {
		refMatMulInto(zRec, hPrev, wh)
		for bi := 0; bi < b; bi++ {
			// z for this (batch, step): input part + recurrent part + bias.
			zin := zAll.Row(bi*t + step)
			zr := zRec.Row(bi)
			gates := l.gates.Data[(bi*t+step)*4*h : (bi*t+step+1)*4*h]
			cell := l.cells.Data[(bi*t+step)*h : (bi*t+step+1)*h]
			tc := l.tanhC.Data[(bi*t+step)*h : (bi*t+step+1)*h]
			hrow := l.hs.Data[(bi*t+step)*h : (bi*t+step+1)*h]
			cp := cPrev.Row(bi)
			for j := 0; j < h; j++ {
				zi := zin[j] + zr[j] + l.B.W[j]
				zf := zin[h+j] + zr[h+j] + l.B.W[h+j]
				zg := zin[2*h+j] + zr[2*h+j] + l.B.W[2*h+j]
				zo := zin[3*h+j] + zr[3*h+j] + l.B.W[3*h+j]
				ig := sigmoid(zi)
				fg := sigmoid(zf)
				gg := math.Tanh(zg)
				og := sigmoid(zo)
				gates[j] = ig
				gates[h+j] = fg
				gates[2*h+j] = gg
				gates[3*h+j] = og
				c := fg*cp[j] + ig*gg
				cell[j] = c
				tcv := math.Tanh(c)
				tc[j] = tcv
				hrow[j] = og * tcv
			}
		}
		l.hs.StepInto(hPrev, step)
		l.cells.StepInto(cPrev, step)
	}
	return l.hs.Clone()
}

// Backward is the pre-kernel LSTM backward pass.
func (l *refLSTM) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	if l.x == nil {
		panic("nn: LSTM.Backward before Forward")
	}
	b, t, h := l.x.B, l.x.T, l.hidden

	dzAll := tensor.NewTensor3(b, t, 4*h) // pre-activation gate gradients
	dcNext := tensor.NewMatrix(b, h)
	dhNext := tensor.NewMatrix(b, h)
	wh := tensor.FromSlice(h, 4*h, l.Wh.W)
	dhRec := tensor.NewMatrix(b, h)
	dzStep := tensor.NewMatrix(b, 4*h)

	for step := t - 1; step >= 0; step-- {
		for bi := 0; bi < b; bi++ {
			base := (bi*t + step)
			gates := l.gates.Data[base*4*h : (base+1)*4*h]
			tc := l.tanhC.Data[base*h : (base+1)*h]
			dout := dOut.Data[base*h : (base+1)*h]
			dz := dzAll.Data[base*4*h : (base+1)*4*h]
			dcn := dcNext.Row(bi)
			dhn := dhNext.Row(bi)
			var cPrev []float64
			if step > 0 {
				cPrev = l.cells.Data[(base-1)*h : base*h]
			}
			for j := 0; j < h; j++ {
				ig, fg, gg, og := gates[j], gates[h+j], gates[2*h+j], gates[3*h+j]
				dh := dout[j] + dhn[j]
				do := dh * tc[j]
				dc := dh*og*(1-tc[j]*tc[j]) + dcn[j]
				di := dc * gg
				dg := dc * ig
				var cp float64
				if cPrev != nil {
					cp = cPrev[j]
				}
				df := dc * cp
				dz[j] = di * ig * (1 - ig)
				dz[h+j] = df * fg * (1 - fg)
				dz[2*h+j] = dg * (1 - gg*gg)
				dz[3*h+j] = do * og * (1 - og)
				dcn[j] = dc * fg // becomes dcNext for step-1
			}
		}
		// dh_{t-1} += dz_t · Whᵀ ; dWh += h_{t-1}ᵀ · dz_t.
		dzAll.StepInto(dzStep, step)
		dhm := refMatMulTransB(dzStep, wh)
		copy(dhRec.Data, dhm.Data)
		dhNext, dhRec = dhRec, dhNext
		if step > 0 {
			hPrev := l.hs.Step(step - 1)
			dwh := tensor.FromSlice(h, 4*h, l.Wh.G)
			refMatMulTransAAddInto(dwh, hPrev, dzStep)
		}
	}

	// Input-side gradients in bulk: dWx += Xᵀ·dZ, db += colsum(dZ),
	// dX = dZ·Wxᵀ over the flattened (B·T) view.
	dwx := tensor.FromSlice(l.in, 4*h, l.Wx.G)
	refMatMulTransAAddInto(dwx, l.x.AsMatrix(), dzAll.AsMatrix())
	rows := b * t
	for i := 0; i < rows; i++ {
		src := dzAll.Data[i*4*h : (i+1)*4*h]
		for j, v := range src {
			l.B.G[j] += v
		}
	}
	wx := tensor.FromSlice(l.in, 4*h, l.Wx.W)
	dxm := refMatMulTransB(dzAll.AsMatrix(), wx)
	dx := tensor.NewTensor3(b, t, l.in)
	copy(dx.Data, dxm.Data)
	return dx
}
