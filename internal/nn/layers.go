package nn

import (
	"fmt"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// Layer is a differentiable sequence-to-sequence transformation on
// (batch, time, feature) tensors. Forward caches whatever Backward needs;
// Backward accumulates parameter gradients and returns the gradient with
// respect to the layer input. A layer instance carries training state and
// must not be shared across goroutines.
//
// Tensors returned by Forward and Backward alias arena storage owned by
// the network: valid until the next Forward (respectively Backward) pass,
// so consume or copy them within the step.
type Layer interface {
	// Forward computes the layer output for x.
	Forward(x *tensor.Tensor3) *tensor.Tensor3
	// Backward consumes the gradient of the loss with respect to the layer
	// output (same shape as the last Forward's result) and returns the
	// gradient with respect to the layer input.
	Backward(dOut *tensor.Tensor3) *tensor.Tensor3
	// Params returns the learnable parameters (possibly empty).
	Params() []*Param
	// InDim and OutDim are the feature dimensions.
	InDim() int
	OutDim() int
}

// Identity is the pass-through layer used for "Identity" ops in the search
// space.
type Identity struct{ dim int }

// NewIdentity returns an identity layer of the given feature dimension.
func NewIdentity(dim int) *Identity { return &Identity{dim: dim} }

// Forward returns x unchanged.
func (l *Identity) Forward(x *tensor.Tensor3) *tensor.Tensor3 { return x }

// Backward returns dOut unchanged.
func (l *Identity) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 { return dOut }

// Params returns nil: the identity has no parameters.
func (l *Identity) Params() []*Param { return nil }

// InDim returns the feature dimension.
func (l *Identity) InDim() int { return l.dim }

// OutDim returns the feature dimension.
func (l *Identity) OutDim() int { return l.dim }

// Dense is a time-distributed affine layer: y[b,t,:] = x[b,t,:]·W + b,
// optionally without bias. The paper's skip-connection projections are Dense
// layers with no activation (§IV: "the dense layers for projection did not
// have any activation function").
type Dense struct {
	engined
	in, out int
	W, B    *Param
	x       *tensor.Tensor3 // cached input
}

// NewDense returns a Dense layer with Glorot-initialized weights.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	l := &Dense{in: in, out: out, W: NewParam(name+".W", in*out), B: NewParam(name+".b", out)}
	glorotUniform(rng, l.W.W, in, out)
	return l
}

// Forward computes the affine map over every timestep.
//
//podnas:hotpath
func (l *Dense) Forward(x *tensor.Tensor3) *tensor.Tensor3 {
	if x.F != l.in {
		panic(fmt.Sprintf("nn: Dense expects %d features, got %d", l.in, x.F))
	}
	l.x = x
	es := l.state() //podnas:allow hotalloc lazy one-time engineState init per layer
	rows := x.B * x.T
	es.resetFwd()
	data := es.fwd.Alloc(rows * l.out)
	es.cfg.Gemm(kernel.MatOf(rows, l.out, data),
		kernel.MatOf(rows, l.in, x.Data),
		kernel.MatOf(l.in, l.out, l.W.W), false, false, false)
	addBiasRows(data, l.B.W, rows, l.out)
	return tensor.Tensor3FromSlice(x.B, x.T, l.out, data)
}

//podnas:hotpath
func addBiasRows(data, bias []float64, rows, width int) {
	for i := 0; i < rows; i++ {
		dst := data[i*width : (i+1)*width]
		for j, b := range bias {
			dst[j] += b
		}
	}
}

// Backward accumulates dW, db and returns dX.
//
//podnas:hotpath
func (l *Dense) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	if l.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	es := l.state() //podnas:allow hotalloc lazy one-time engineState init per layer
	rows := dOut.B * dOut.T
	es.resetBwd()
	es.cfg.Gemm(kernel.MatOf(l.in, l.out, l.W.G),
		kernel.MatOf(rows, l.in, l.x.Data),
		kernel.MatOf(rows, l.out, dOut.Data), true, false, true)
	sumGradRows(l.B.G, dOut.Data, rows, l.out)
	dx := es.bwd.Alloc(rows * l.in)
	es.cfg.Gemm(kernel.MatOf(rows, l.in, dx),
		kernel.MatOf(rows, l.out, dOut.Data),
		kernel.MatOf(l.in, l.out, l.W.W), false, true, false)
	return tensor.Tensor3FromSlice(l.x.B, l.x.T, l.in, dx)
}

//podnas:hotpath
func sumGradRows(acc, data []float64, rows, width int) {
	for i := 0; i < rows; i++ {
		src := data[i*width : (i+1)*width]
		for j, v := range src {
			acc[j] += v
		}
	}
}

// Params returns the weight and bias parameters.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// InDim returns the input feature dimension.
func (l *Dense) InDim() int { return l.in }

// OutDim returns the output feature dimension.
func (l *Dense) OutDim() int { return l.out }

// ReLU is an elementwise rectifier layer. The paper applies it after every
// skip-connection add.
type ReLU struct {
	engined
	dim  int
	mask []bool
}

// NewReLU returns a ReLU layer of the given feature dimension.
func NewReLU(dim int) *ReLU { return &ReLU{dim: dim} }

// Forward rectifies x elementwise.
//
//podnas:hotpath
func (l *ReLU) Forward(x *tensor.Tensor3) *tensor.Tensor3 {
	es := l.state() //podnas:allow hotalloc lazy one-time engineState init per layer
	n := len(x.Data)
	if cap(l.mask) < n {
		l.mask = make([]bool, n) //podnas:allow hotalloc mask growth is amortized across calls
	}
	l.mask = l.mask[:n]
	es.resetFwd()
	data := es.fwd.Alloc(n)
	for i, v := range x.Data {
		if v > 0 {
			l.mask[i] = true
			data[i] = v
		} else {
			l.mask[i] = false
			data[i] = 0
		}
	}
	return tensor.Tensor3FromSlice(x.B, x.T, x.F, data)
}

// Backward gates dOut by the forward activation mask.
//
//podnas:hotpath
func (l *ReLU) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	es := l.state() //podnas:allow hotalloc lazy one-time engineState init per layer
	n := len(dOut.Data)
	es.resetBwd()
	data := es.bwd.Alloc(n)
	for i, v := range dOut.Data {
		if l.mask[i] {
			data[i] = v
		} else {
			data[i] = 0
		}
	}
	return tensor.Tensor3FromSlice(dOut.B, dOut.T, dOut.F, data)
}

// Params returns nil.
func (l *ReLU) Params() []*Param { return nil }

// InDim returns the feature dimension.
func (l *ReLU) InDim() int { return l.dim }

// OutDim returns the feature dimension.
func (l *ReLU) OutDim() int { return l.dim }
