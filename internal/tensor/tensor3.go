package tensor

import (
	"fmt"

	"podnas/internal/kernel"
)

// Tensor3 is a dense rank-3 tensor with layout (batch, time, feature),
// row-major with feature fastest. It is the activation type flowing through
// the sequence models: B examples, T timesteps, F features each.
type Tensor3 struct {
	B, T, F int
	Data    []float64
}

// NewTensor3 returns a zeroed B×T×F tensor.
func NewTensor3(b, t, f int) *Tensor3 {
	if b < 0 || t < 0 || f < 0 {
		panic(fmt.Sprintf("tensor: invalid tensor dims %dx%dx%d", b, t, f))
	}
	return &Tensor3{B: b, T: t, F: f, Data: make([]float64, b*t*f)}
}

// Tensor3FromSlice wraps data (length b*t*f) without copying.
func Tensor3FromSlice(b, t, f int, data []float64) *Tensor3 {
	if len(data) != b*t*f {
		panic(fmt.Sprintf("tensor: Tensor3FromSlice length %d != %d*%d*%d", len(data), b, t, f))
	}
	return &Tensor3{B: b, T: t, F: f, Data: data}
}

// At returns element (b, t, f).
func (x *Tensor3) At(b, t, f int) float64 { return x.Data[(b*x.T+t)*x.F+f] }

// Set assigns element (b, t, f).
func (x *Tensor3) Set(b, t, f int, v float64) { x.Data[(b*x.T+t)*x.F+f] = v }

// Step returns a view of timestep t across the whole batch as a B×F matrix.
// The view shares storage only when T == 1; otherwise the data for a fixed t
// is strided, so Step copies. Use StepInto to reuse a buffer.
func (x *Tensor3) Step(t int) *Matrix {
	out := NewMatrix(x.B, x.F)
	x.StepInto(out, t)
	return out
}

// StepInto copies timestep t of every batch element into dst (B×F).
func (x *Tensor3) StepInto(dst *Matrix, t int) {
	if dst.Rows != x.B || dst.Cols != x.F {
		panic("tensor: StepInto shape mismatch")
	}
	for b := 0; b < x.B; b++ {
		src := x.Data[(b*x.T+t)*x.F : (b*x.T+t+1)*x.F]
		copy(dst.Data[b*x.F:(b+1)*x.F], src)
	}
}

// SetStep writes the B×F matrix src into timestep t.
func (x *Tensor3) SetStep(t int, src *Matrix) {
	if src.Rows != x.B || src.Cols != x.F {
		panic("tensor: SetStep shape mismatch")
	}
	for b := 0; b < x.B; b++ {
		copy(x.Data[(b*x.T+t)*x.F:(b*x.T+t+1)*x.F], src.Data[b*x.F:(b+1)*x.F])
	}
}

// AddStep accumulates the B×F matrix src into timestep t.
func (x *Tensor3) AddStep(t int, src *Matrix) {
	if src.Rows != x.B || src.Cols != x.F {
		panic("tensor: AddStep shape mismatch")
	}
	for b := 0; b < x.B; b++ {
		dst := x.Data[(b*x.T+t)*x.F : (b*x.T+t+1)*x.F]
		row := src.Data[b*x.F : (b+1)*x.F]
		for j, v := range row {
			dst[j] += v
		}
	}
}

// AsMatrix returns a (B*T)×F matrix view sharing storage with x. Valid
// because the layout has feature fastest and time second.
func (x *Tensor3) AsMatrix() *Matrix {
	return &Matrix{Rows: x.B * x.T, Cols: x.F, Data: x.Data}
}

// Clone returns a deep copy.
func (x *Tensor3) Clone() *Tensor3 {
	out := NewTensor3(x.B, x.T, x.F)
	copy(out.Data, x.Data)
	return out
}

// Zero sets all elements to zero.
func (x *Tensor3) Zero() {
	for i := range x.Data {
		x.Data[i] = 0
	}
}

// Rows returns a view of example b as a T×F matrix sharing storage.
func (x *Tensor3) Rows(b int) *Matrix {
	return &Matrix{Rows: x.T, Cols: x.F, Data: x.Data[b*x.T*x.F : (b+1)*x.T*x.F]}
}

// Gather copies the examples with the given indices into a new tensor.
func (x *Tensor3) Gather(idx []int) *Tensor3 {
	return x.GatherInto(nil, idx)
}

// GatherInto copies the examples with the given indices into dst, reusing
// dst's storage when it has the capacity (a nil dst allocates). Returns
// the gathered tensor, which training loops thread through iterations so
// steady-state minibatch assembly allocates nothing.
func (x *Tensor3) GatherInto(dst *Tensor3, idx []int) *Tensor3 {
	stride := x.T * x.F
	need := len(idx) * stride
	if dst == nil {
		dst = &Tensor3{}
	}
	if cap(dst.Data) < need {
		dst.Data = make([]float64, need)
	}
	dst.B, dst.T, dst.F = len(idx), x.T, x.F
	dst.Data = dst.Data[:need]
	for i, b := range idx {
		copy(dst.Data[i*stride:(i+1)*stride], x.Data[b*stride:(b+1)*stride])
	}
	return dst
}

// AddTensor3 computes a += b elementwise.
func AddTensor3(a, b *Tensor3) {
	if a.B != b.B || a.T != b.T || a.F != b.F {
		panic("tensor: AddTensor3 shape mismatch")
	}
	kernel.AddTo(a.Data, b.Data)
}
