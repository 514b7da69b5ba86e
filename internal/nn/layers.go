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
// the network, and their headers are fields of the layer that it refills
// and returns by address: both are valid until the next Forward
// (respectively Backward) pass, so consume or copy them within the step.
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
	y, dx   tensor.Tensor3  // headers of the last Forward's and Backward's results
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
	kernel.AddRows(data, l.B.W, rows, l.out)
	l.y = tensor.Tensor3{B: x.B, T: x.T, F: l.out, Data: data}
	return &l.y
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
	kernel.SumRows(l.B.G, dOut.Data, rows, l.out)
	dx := es.bwd.Alloc(rows * l.in)
	es.cfg.Gemm(kernel.MatOf(rows, l.in, dx),
		kernel.MatOf(rows, l.out, dOut.Data),
		kernel.MatOf(l.in, l.out, l.W.W), false, true, false)
	l.dx = tensor.Tensor3{B: l.x.B, T: l.x.T, F: l.in, Data: dx}
	return &l.dx
}

// Params returns the weight and bias parameters.
func (l *Dense) Params() []*Param { return []*Param{l.W, l.B} }

// InDim returns the input feature dimension.
func (l *Dense) InDim() int { return l.in }

// OutDim returns the output feature dimension.
func (l *Dense) OutDim() int { return l.out }

// ReLU is an elementwise rectifier layer. The paper applies it after every
// skip-connection add. Backward takes its mask from the forward output
// (positive exactly where the input was), so the layer keeps no mask of
// its own.
type ReLU struct {
	engined
	dim   int
	y, dx tensor.Tensor3 // headers of the last Forward's and Backward's results
}

// NewReLU returns a ReLU layer of the given feature dimension.
func NewReLU(dim int) *ReLU { return &ReLU{dim: dim} }

// Forward rectifies x elementwise: NaN and -0 become +0, +Inf passes.
//
//podnas:hotpath
func (l *ReLU) Forward(x *tensor.Tensor3) *tensor.Tensor3 {
	es := l.state() //podnas:allow hotalloc lazy one-time engineState init per layer
	es.resetFwd()
	data := es.fwd.Alloc(len(x.Data))
	kernel.ReLU(data, x.Data)
	l.y = tensor.Tensor3{B: x.B, T: x.T, F: x.F, Data: data}
	return &l.y
}

// Backward passes dOut where the forward output is positive and zero
// elsewhere.
//
//podnas:hotpath
func (l *ReLU) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	if l.y.Data == nil {
		panic("nn: ReLU.Backward before Forward")
	}
	es := l.state() //podnas:allow hotalloc lazy one-time engineState init per layer
	es.resetBwd()
	data := es.bwd.Alloc(len(dOut.Data))
	kernel.ReLUGrad(data, l.y.Data, dOut.Data)
	l.dx = tensor.Tensor3{B: dOut.B, T: dOut.T, F: dOut.F, Data: data}
	return &l.dx
}

// Params returns nil.
func (l *ReLU) Params() []*Param { return nil }

// InDim returns the feature dimension.
func (l *ReLU) InDim() int { return l.dim }

// OutDim returns the feature dimension.
func (l *ReLU) OutDim() int { return l.dim }
