// Package ag implements the reverse-mode automatic differentiation engine
// that stands in for PyTorch in this reproduction. Every operator the
// paper's three networks need — 2D/3D convolution, transposed
// convolution, pooling, bilinear un-pooling, batch normalization, dense
// concatenation, and the MSE / MS-SSIM / BCE losses — is provided as a
// differentiable op on Value nodes.
//
// The engine is a tape: each op returns a new Value whose back closure
// knows how to push gradients to its parents. Calling Backward on a
// scalar output topologically sorts the tape and runs the closures in
// reverse. All gradient formulas are validated against central finite
// differences in the package tests.
package ag

import (
	"fmt"

	"computecovid19/internal/tensor"
)

// Value is one node in the autograd tape: a tensor plus (optionally) its
// gradient and the recipe for back-propagating through the op that
// produced it.
type Value struct {
	// T holds the forward data.
	T *tensor.Tensor
	// Grad accumulates dLoss/dT. It is nil until the first backward pass
	// touches this node.
	Grad *tensor.Tensor

	needGrad bool
	parents  []*Value
	back     func()
	op       string
}

// Param wraps t as a trainable leaf: gradients will be accumulated into
// it during Backward.
func Param(t *tensor.Tensor) *Value {
	return &Value{T: t, needGrad: true, op: "param"}
}

// Const wraps t as a non-trainable leaf: no gradient is computed for it
// and the tape stops there.
func Const(t *tensor.Tensor) *Value {
	return &Value{T: t, op: "const"}
}

// Op returns the name of the operation that produced this node (or
// "param"/"const" for leaves). Useful in error messages and tests.
func (v *Value) Op() string { return v.op }

// Shape returns the shape of the forward tensor.
func (v *Value) Shape() []int { return v.T.Shape }

// Tensor returns v.T, or nil for a nil v — an absent optional operand
// such as a layer without bias.
func (v *Value) Tensor() *tensor.Tensor {
	if v == nil {
		return nil
	}
	return v.T
}

// Scalar returns the single element of a one-element Value.
func (v *Value) Scalar() float32 {
	if v.T.Numel() != 1 {
		panic(fmt.Sprintf("ag: Scalar on tensor with %d elements", v.T.Numel()))
	}
	return v.T.Data[0]
}

// newNode builds an interior tape node. needGrad is inherited from the
// parents; back is only retained when a gradient can flow.
func newNode(op string, t *tensor.Tensor, back func(), parents ...*Value) *Value {
	need := false
	for _, p := range parents {
		if p != nil && p.needGrad {
			need = true
			break
		}
	}
	v := &Value{T: t, needGrad: need, op: op}
	if need {
		v.parents = parents
		v.back = back
	}
	return v
}

// ensureGrad allocates (zeroed) storage for v.Grad if absent and returns
// it. Ops call this before accumulating into a parent's gradient.
func (v *Value) ensureGrad() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = tensor.New(v.T.Shape...)
	}
	return v.Grad
}

// ZeroGrad clears the accumulated gradient, keeping the allocation.
func (v *Value) ZeroGrad() {
	if v.Grad != nil {
		v.Grad.Zero()
	}
}

// Backward runs reverse-mode differentiation from v, which must hold a
// single element (a scalar loss). Gradients are accumulated into the
// Grad field of every reachable node that needs one; call ZeroGrad on
// parameters between steps.
func (v *Value) Backward() {
	if v.T.Numel() != 1 {
		panic(fmt.Sprintf("ag: Backward requires a scalar output, got shape %v", v.T.Shape))
	}
	if !v.needGrad {
		return
	}
	order := topoSort(v)
	v.ensureGrad().Fill(1)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
}

// topoSort returns the reachable needGrad subgraph in topological order
// (parents before children). Iterative DFS: network depth (DDnet is ~50
// layers, DenseNet-121 over 120) would be fine for recursion, but the
// tape for a long training loop is cheap to walk iteratively and immune
// to stack limits.
func topoSort(root *Value) []*Value {
	type frame struct {
		node *Value
		next int
	}
	var order []*Value
	visited := map[*Value]bool{root: true}
	stack := []frame{{node: root}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.node.parents) {
			p := f.node.parents[f.next]
			f.next++
			if p != nil && p.needGrad && !visited[p] {
				visited[p] = true
				stack = append(stack, frame{node: p})
			}
			continue
		}
		order = append(order, f.node)
		stack = stack[:len(stack)-1]
	}
	return order
}
