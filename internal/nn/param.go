// Package nn is a from-scratch neural-network library implementing exactly
// what the paper's search space needs: time-distributed dense layers, LSTM
// layers with full backpropagation through time, ReLU/identity ops, the
// projection+sum+ReLU skip-connection merge, the Adam optimizer, and MSE
// training with an R² validation metric. Networks are assembled from a
// directed-acyclic-graph specification mirroring DeepHyper's stacked-LSTM
// search space (paper §III-A).
//
// A network instance is not safe for concurrent use; parallel architecture
// evaluations each build their own network.
package nn

import (
	"fmt"
	"math"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// Param is one learnable tensor with its gradient and Adam moments.
type Param struct {
	Name string
	W    []float64 // weights
	G    []float64 // gradient accumulator
	m, v []float64 // Adam first/second moments
}

// NewParam allocates a named parameter of n weights.
func NewParam(name string, n int) *Param {
	return &Param{Name: name, W: make([]float64, n), G: make([]float64, n), m: make([]float64, n), v: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { clear(p.G) }

// Adam is the Adam optimizer (Kingma & Ba 2014) with the paper's default
// hyperparameters: lr=0.001, β1=0.9, β2=0.999, ε=1e-8.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	step                  int
}

// NewAdam returns an Adam optimizer with the given learning rate and
// standard momentum constants.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter and clears gradients,
// one fused kernel pass per parameter.
//
//podnas:hotpath
func (a *Adam) Step(params []*Param) {
	a.step++
	k := kernel.AdamCoeffs{
		Beta1: a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		Corr1: 1 - math.Pow(a.Beta1, float64(a.step)),
		Corr2: 1 - math.Pow(a.Beta2, float64(a.step)),
		LR:    a.LR, Eps: a.Eps,
	}
	for _, p := range params {
		kernel.AdamStep(p.W, p.G, p.m, p.v, &k)
	}
}

// glorotUniform fills w with the Glorot/Xavier uniform initialization for a
// layer with the given fan-in and fan-out.
func glorotUniform(rng *tensor.RNG, w []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6 / float64(fanIn+fanOut))
	rng.FillUniform(w, -limit, limit)
}

// checkFinite panics with a diagnostic if any value is NaN or Inf; used by
// tests and the trainer's divergence guard.
func checkFinite(name string, xs []float64) error {
	for i, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("nn: %s[%d] is not finite (%g)", name, i, v)
		}
	}
	return nil
}
