package nn

import (
	"fmt"

	"podnas/internal/kernel"
	"podnas/internal/tensor"
)

// GraphInput is the sentinel node index denoting the network input.
const GraphInput = -1

// GraphNodeSpec describes one node of the stacked-LSTM DAG.
type GraphNodeSpec struct {
	// Inputs lists the source nodes feeding this node: GraphInput (-1) for
	// the network input or the index of an earlier node. Inputs[0] is the
	// chain predecessor; additional entries are skip connections.
	Inputs []int
	// Units selects the node body: 0 for Identity, >0 for an LSTM with that
	// many hidden units.
	Units int
}

// GraphSpec is a full network specification in topological order. The final
// node's output is the network output.
type GraphSpec struct {
	InputDim int
	Nodes    []GraphNodeSpec
	// NoMergeReLU disables the rectifier after skip-connection merges
	// (DESIGN.md ablation; the paper applies ReLU after every add).
	NoMergeReLU bool
}

// Validate checks topology: nonempty, inputs referencing earlier nodes only.
func (s GraphSpec) Validate() error {
	if s.InputDim < 1 {
		return fmt.Errorf("nn: graph input dim %d", s.InputDim)
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("nn: graph has no nodes")
	}
	for i, n := range s.Nodes {
		if len(n.Inputs) == 0 {
			return fmt.Errorf("nn: node %d has no inputs", i)
		}
		for _, in := range n.Inputs {
			if in != GraphInput && (in < 0 || in >= i) {
				return fmt.Errorf("nn: node %d references invalid input %d", i, in)
			}
		}
		if n.Units < 0 {
			return fmt.Errorf("nn: node %d has negative units", i)
		}
	}
	return nil
}

// graphNode is the compiled form of a GraphNodeSpec.
type graphNode struct {
	inputs []int
	// merge machinery, present when len(inputs) > 1: per-input projection
	// Dense layers (no activation), summed, then rectified — the paper's
	// skip-connection semantics.
	proj []Layer // Dense, one per input
	relu Layer   // ReLU, nil when the spec disables it
	body Layer   // Identity or LSTM

	// forward caches
	out     *tensor.Tensor3
	mergeIn []*tensor.Tensor3
}

// Graph is a compiled stacked-LSTM DAG network.
type Graph struct {
	spec   GraphSpec
	nodes  []*graphNode
	params []*Param
	outDim int
	es     *engineState // execution policy + arenas shared by all layers

	// backward scratch: the gradient accumulated so far for each node's
	// output and, last, for the network input (nil until a consumer
	// contributes), and the headers those pointers point at, refilled
	// each Backward.
	douts []*tensor.Tensor3
	grads []tensor.Tensor3
}

// SetKernelConfig sets the kernel execution policy (workers, parallel
// threshold, SIMD selection) for every layer of the network.
func (g *Graph) SetKernelConfig(cfg kernel.Config) { g.es.cfg = cfg }

// KernelConfig returns the active kernel execution policy.
func (g *Graph) KernelConfig() kernel.Config { return g.es.cfg }

// NewGraph compiles spec into a trainable network, initializing parameters
// from rng.
func NewGraph(spec GraphSpec, rng *tensor.RNG) (*Graph, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	g := &Graph{spec: spec, es: newEngineState()}
	dims := make([]int, len(spec.Nodes))
	dimOf := func(idx int) int {
		if idx == GraphInput {
			return spec.InputDim
		}
		return dims[idx]
	}
	for i, ns := range spec.Nodes {
		node := &graphNode{inputs: ns.Inputs}
		mergedDim := dimOf(ns.Inputs[0])
		if len(ns.Inputs) > 1 {
			// Project every incoming tensor to the chain input's width.
			node.proj = make([]Layer, len(ns.Inputs))
			for j, in := range ns.Inputs {
				proj := NewDense(fmt.Sprintf("n%d.proj%d", i, j), dimOf(in), mergedDim, rng)
				proj.es = g.es
				node.proj[j] = proj
				g.params = append(g.params, proj.Params()...)
			}
			if !spec.NoMergeReLU {
				relu := NewReLU(mergedDim)
				relu.es = g.es
				node.relu = relu
			}
		}
		if ns.Units > 0 {
			lstm := NewLSTM(fmt.Sprintf("n%d.lstm", i), mergedDim, ns.Units, rng)
			lstm.es = g.es
			node.body = lstm
			g.params = append(g.params, lstm.Params()...)
			dims[i] = ns.Units
		} else {
			node.body = NewIdentity(mergedDim)
			dims[i] = mergedDim
		}
		g.nodes = append(g.nodes, node)
	}
	g.outDim = dims[len(dims)-1]
	g.douts = make([]*tensor.Tensor3, len(g.nodes)+1)
	g.grads = make([]tensor.Tensor3, len(g.nodes)+1)
	return g, nil
}

// OutDim returns the network output feature dimension.
func (g *Graph) OutDim() int { return g.outDim }

// InDim returns the network input feature dimension.
func (g *Graph) InDim() int { return g.spec.InputDim }

// Params returns all learnable parameters.
func (g *Graph) Params() []*Param { return g.params }

// ParamCount returns the total number of learnable weights — the paper's
// evaluation-cost proxy (AE drifts toward smaller networks).
func (g *Graph) ParamCount() int {
	n := 0
	for _, p := range g.params {
		n += len(p.W)
	}
	return n
}

// Forward runs the network on x (B,T,InputDim) and returns (B,T,OutDim).
//
//podnas:hotpath
func (g *Graph) Forward(x *tensor.Tensor3) *tensor.Tensor3 {
	if x.F != g.spec.InputDim {
		panic(fmt.Sprintf("nn: graph expects %d features, got %d", g.spec.InputDim, x.F))
	}
	// Recycle the forward arena: every activation from the previous
	// Forward (including the tensor it returned) is dead from here on.
	g.es.fwd.Reset()
	outOf := func(idx int) *tensor.Tensor3 {
		if idx == GraphInput {
			return x
		}
		return g.nodes[idx].out
	}
	for _, node := range g.nodes {
		var merged *tensor.Tensor3
		if len(node.inputs) == 1 {
			merged = outOf(node.inputs[0])
		} else {
			node.mergeIn = node.mergeIn[:0]
			var sum *tensor.Tensor3
			for j, in := range node.inputs {
				src := outOf(in)
				node.mergeIn = append(node.mergeIn, src)
				p := node.proj[j].Forward(src)
				if sum == nil {
					sum = p
				} else {
					tensor.AddTensor3(sum, p)
				}
			}
			if node.relu != nil {
				merged = node.relu.Forward(sum)
			} else {
				merged = sum
			}
		}
		node.out = node.body.Forward(merged)
	}
	return g.nodes[len(g.nodes)-1].out
}

// Backward propagates dOut (gradient w.r.t. the network output) through the
// DAG, accumulating parameter gradients, and returns the gradient with
// respect to the network input.
//
//podnas:hotpath
func (g *Graph) Backward(dOut *tensor.Tensor3) *tensor.Tensor3 {
	n := len(g.nodes)
	clear(g.douts)
	g.douts[n-1] = dOut
	// Recycle the backward arena; forward caches live in the other one.
	g.es.bwd.Reset()

	// accumulate adds grad to what node idx (or the network input) has
	// received so far. The first contribution is copied into the backward
	// arena, since the accumulator must own what it adds to.
	accumulate := func(idx int, grad *tensor.Tensor3) {
		if idx == GraphInput {
			idx = n
		}
		if g.douts[idx] != nil {
			tensor.AddTensor3(g.douts[idx], grad)
			return
		}
		data := g.es.bwd.Alloc(len(grad.Data))
		copy(data, grad.Data)
		g.grads[idx] = tensor.Tensor3{B: grad.B, T: grad.T, F: grad.F, Data: data}
		g.douts[idx] = &g.grads[idx]
	}

	for i := n - 1; i >= 0; i-- {
		node := g.nodes[i]
		d := g.douts[i]
		if d == nil {
			// Dead node: nothing consumed its output (cannot happen for the
			// chain, but guard anyway).
			continue
		}
		dMerged := node.body.Backward(d)
		if len(node.inputs) == 1 {
			accumulate(node.inputs[0], dMerged)
			continue
		}
		dSum := dMerged
		if node.relu != nil {
			dSum = node.relu.Backward(dMerged)
		}
		for j, in := range node.inputs {
			accumulate(in, node.proj[j].Backward(dSum))
		}
	}
	if g.douts[n] == nil {
		return tensor.NewTensor3(dOut.B, dOut.T, g.spec.InputDim)
	}
	return g.douts[n]
}

// NewStackedLSTM is a convenience constructor for a plain stacked LSTM
// (the paper's manually designed baselines): `layers` hidden LSTM layers of
// `units` each, followed by the constant LSTM(outDim) output layer.
func NewStackedLSTM(inDim, outDim, units, layers int, rng *tensor.RNG) (*Graph, error) {
	spec := GraphSpec{InputDim: inDim}
	prev := GraphInput
	for i := 0; i < layers; i++ {
		spec.Nodes = append(spec.Nodes, GraphNodeSpec{Inputs: []int{prev}, Units: units})
		prev = len(spec.Nodes) - 1
	}
	spec.Nodes = append(spec.Nodes, GraphNodeSpec{Inputs: []int{prev}, Units: outDim})
	return NewGraph(spec, rng)
}

// Spec returns the graph's immutable specification (for serialization).
func (g *Graph) Spec() GraphSpec { return g.spec }

// ExportWeights returns a name → values copy of every parameter, the
// serializable form of a trained network.
func (g *Graph) ExportWeights() map[string][]float64 {
	out := make(map[string][]float64, len(g.params))
	for _, p := range g.params {
		w := make([]float64, len(p.W))
		copy(w, p.W)
		out[p.Name] = w
	}
	return out
}

// ImportWeights loads previously exported weights into the network. Every
// parameter must be present with the exact length; Adam moments are reset.
func (g *Graph) ImportWeights(weights map[string][]float64) error {
	for _, p := range g.params {
		w, ok := weights[p.Name]
		if !ok {
			return fmt.Errorf("nn: missing weights for %s", p.Name)
		}
		if len(w) != len(p.W) {
			return fmt.Errorf("nn: %s has %d weights, want %d", p.Name, len(w), len(p.W))
		}
		copy(p.W, w)
		p.ZeroGrad()
		for i := range p.m {
			p.m[i], p.v[i] = 0, 0
		}
	}
	return nil
}
