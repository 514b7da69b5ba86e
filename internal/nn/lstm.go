package nn

import (
	"fmt"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// LSTM is a standard long short-term memory layer returning the full hidden
// sequence (Keras `return_sequences=True`), which is what stacked LSTMs and
// the sequence-to-sequence forecast task require.
//
// Gate layout inside the 4H dimension is [input, forget, cell, output]:
//
//	z_t = x_t·Wx + h_{t-1}·Wh + b
//	i = σ(z_i), f = σ(z_f), g = tanh(z_g), o = σ(z_o)
//	c_t = f ∘ c_{t-1} + i ∘ g
//	h_t = o ∘ tanh(c_t)
//
// Forward computes the concatenated [i|f|g|o] gate block with one bulk GEMM
// for the input projection, one GEMM per timestep for the recurrence
// writing straight into strided views of the gate buffer, and one fused
// activation sweep per row (kernel.LSTMForwardStep). Backward
// mirrors it with kernel.LSTMBackwardStep plus bulk weight-gradient GEMMs.
// All scratch comes from the network's arenas, so steady-state training
// steps allocate nothing here. The pre-kernel four-pass loop survives as a
// test-only oracle (reference_test.go).
type LSTM struct {
	engined
	in, hidden int
	Wx, Wh, B  *Param

	// Forward caches (arena-backed, valid until the next Forward; the
	// returned hidden tensor aliases hs).
	x     *tensor.Tensor3
	b, t  int
	gates []float64 // (B,T,4H) post-activation gate values i,f,g,o
	cells []float64 // (B,T,H) cell states c_t
	tanhC []float64 // (B,T,H) tanh(c_t)
	hs    []float64 // (B,T,H) hidden states h_t
	zeroH []float64 // read-only zeros standing in for c_{-1}

	pbWhT *kernel.PackedB // Whᵀ packed once per Backward for the dh carry

	y, dx tensor.Tensor3 // headers of the last Forward's and Backward's results
}

// NewLSTM returns an LSTM layer with Glorot-initialized kernels and the
// forget-gate bias set to 1 (Keras' unit_forget_bias).
func NewLSTM(name string, in, hidden int, rng *tensor.RNG) *LSTM {
	if in < 1 || hidden < 1 {
		panic(fmt.Sprintf("nn: invalid LSTM dims in=%d hidden=%d", in, hidden))
	}
	l := &LSTM{
		in: in, hidden: hidden,
		Wx: NewParam(name+".Wx", in*4*hidden),
		Wh: NewParam(name+".Wh", hidden*4*hidden),
		B:  NewParam(name+".b", 4*hidden),
	}
	glorotUniform(rng, l.Wx.W, in, 4*hidden)
	glorotUniform(rng, l.Wh.W, hidden, 4*hidden)
	for j := hidden; j < 2*hidden; j++ {
		l.B.W[j] = 1 // forget-gate bias
	}
	return l
}

// Forward runs the recurrence over all timesteps of x (B,T,in) and returns
// the hidden sequence (B,T,hidden). The result aliases arena storage owned
// by this layer: consume or copy it before the next Forward.
//
//podnas:hotpath
func (l *LSTM) Forward(x *tensor.Tensor3) *tensor.Tensor3 {
	if x.F != l.in {
		panic(fmt.Sprintf("nn: LSTM expects %d features, got %d", l.in, x.F))
	}
	es := l.state() //podnas:allow hotalloc lazy one-time engineState init per layer
	es.resetFwd()
	b, t, h := x.B, x.T, l.hidden
	h4 := 4 * h
	l.x, l.b, l.t = x, b, t
	l.gates = es.fwd.Alloc(b * t * h4)
	l.cells = es.fwd.Alloc(b * t * h)
	l.tanhC = es.fwd.Alloc(b * t * h)
	l.hs = es.fwd.Alloc(b * t * h)
	if cap(l.zeroH) < h {
		l.zeroH = make([]float64, h) //podnas:allow hotalloc zeroH growth is amortized across steps
	}

	// Input contribution for every timestep in one GEMM, written straight
	// into the gate buffer: (B·T,F)·(F,4H), then the bias.
	es.cfg.Gemm(kernel.MatOf(b*t, h4, l.gates),
		kernel.MatOf(b*t, l.in, x.Data),
		kernel.MatOf(l.in, h4, l.Wx.W), false, false, false)
	kernel.AddRows(l.gates, l.B.W, b*t, h4)

	// Recurrent part: z_t += h_{t-1}·Wh through strided timestep views of
	// the shared buffers (no StepInto copies), Wh read where it lies. The
	// t=0 recurrent GEMM is skipped outright since h_{-1} is zero.
	wh := kernel.MatOf(h, h4, l.Wh.W)
	for step := 0; step < t; step++ {
		if step > 0 {
			zStep := kernel.Mat{R: b, C: h4, Stride: t * h4, Data: l.gates[step*h4:]}
			hPrev := kernel.Mat{R: b, C: h, Stride: t * h, Data: l.hs[(step-1)*h:]}
			es.cfg.Gemm(zStep, hPrev, wh, false, false, true)
		}
		l.forwardSweep(b, step)
	}
	l.y = tensor.Tensor3{B: b, T: t, F: h, Data: l.hs}
	return &l.y
}

// forwardSweep applies the fused activation update to the b batch rows of
// one timestep.
//
//podnas:hotpath
func (l *LSTM) forwardSweep(b, step int) {
	h, t := l.hidden, l.t
	h4 := 4 * h
	for bi := 0; bi < b; bi++ {
		base := bi*t + step
		cp := l.zeroH[:h]
		if step > 0 {
			cp = l.cells[(base-1)*h : base*h]
		}
		kernel.LSTMForwardStep(
			l.gates[base*h4:base*h4+h4], cp,
			l.cells[base*h:base*h+h],
			l.tanhC[base*h:base*h+h],
			l.hs[base*h:base*h+h])
	}
}

// Backward consumes dOut (B,T,hidden), accumulates gradients for Wx, Wh, b,
// and returns the gradient with respect to the input (B,T,in). The result
// aliases arena storage valid until the next Backward.
//
//podnas:hotpath
func (l *LSTM) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	es := l.state() //podnas:allow hotalloc lazy one-time engineState init per layer
	if l.x == nil {
		panic("nn: LSTM.Backward before Forward")
	}
	es.resetBwd()
	b, t, h := l.b, l.t, l.hidden
	h4 := 4 * h
	dz := es.bwd.Alloc(b * t * h4) // pre-activation gate gradients
	dc := es.bwd.AllocZero(b * h)  // cell-gradient carry
	dhn := es.bwd.AllocZero(b * h) // recurrent hidden-gradient carry

	// Whᵀ packed once for the per-step dh_{t-1} = dz_t·Whᵀ recurrence.
	l.pbWhT = es.cfg.PackB(l.pbWhT, kernel.MatOf(h, h4, l.Wh.W), true)
	for step := t - 1; step >= 0; step-- {
		// Fused per-row sweep: reads the dhn carry from step+1, fills
		// dz_t, and updates the dc carry in place.
		l.backwardSweep(dOut, dz, dc, dhn, b, step)
		if step > 0 {
			dzStep := kernel.Mat{R: b, C: h4, Stride: t * h4, Data: dz[step*h4:]}
			hPrev := kernel.Mat{R: b, C: h, Stride: t * h, Data: l.hs[(step-1)*h:]}
			// dh_{t-1} = dz_t·Whᵀ (overwrites the carry the sweep just
			// consumed); dWh += h_{t-1}ᵀ·dz_t.
			es.cfg.GemmPacked(kernel.MatOf(b, h, dhn), dzStep, false, l.pbWhT, false)
			es.cfg.Gemm(kernel.MatOf(h, h4, l.Wh.G), hPrev, dzStep, true, false, true)
		}
	}

	// Input-side gradients in bulk: dWx += Xᵀ·dZ, db += colsum(dZ),
	// dX = dZ·Wxᵀ over the flattened (B·T) view.
	es.cfg.Gemm(kernel.MatOf(l.in, h4, l.Wx.G),
		kernel.MatOf(b*t, l.in, l.x.Data),
		kernel.MatOf(b*t, h4, dz), true, false, true)
	kernel.SumRows(l.B.G, dz, b*t, h4)
	dx := es.bwd.Alloc(b * t * l.in)
	es.cfg.Gemm(kernel.MatOf(b*t, l.in, dx),
		kernel.MatOf(b*t, h4, dz),
		kernel.MatOf(l.in, h4, l.Wx.W), false, true, false)
	l.dx = tensor.Tensor3{B: b, T: t, F: l.in, Data: dx}
	return &l.dx
}

// backwardSweep runs the fused BPTT gate sweep over the b batch rows of one
// timestep.
//
//podnas:hotpath
func (l *LSTM) backwardSweep(dOut *tensor.Tensor3, dz, dc, dhn []float64, b, step int) {
	h, t := l.hidden, l.t
	h4 := 4 * h
	for bi := 0; bi < b; bi++ {
		base := bi*t + step
		cPrev := l.zeroH[:h]
		if step > 0 {
			cPrev = l.cells[(base-1)*h : base*h]
		}
		kernel.LSTMBackwardStep(
			l.gates[base*h4:base*h4+h4],
			l.tanhC[base*h:base*h+h],
			cPrev,
			dOut.Data[base*h:base*h+h],
			dhn[bi*h:bi*h+h],
			dc[bi*h:bi*h+h],
			dz[base*h4:base*h4+h4])
	}
}

// Params returns Wx, Wh and the bias.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

// InDim returns the input feature dimension.
func (l *LSTM) InDim() int { return l.in }

// OutDim returns the hidden (output) dimension.
func (l *LSTM) OutDim() int { return l.hidden }

// Hidden returns the hidden width.
func (l *LSTM) Hidden() int { return l.hidden }
