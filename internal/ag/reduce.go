package ag

import (
	"computecovid19/internal/tensor"
)

// Sum reduces a to a scalar by summing every element.
func Sum(a *Value) *Value {
	out := tensor.Scalar(float32(a.T.Sum()))
	var node *Value
	node = newNode("sum", out, func() {
		if a.needGrad {
			d := node.Grad.Data[0]
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += d
			}
		}
	}, a)
	return node
}

// Mean reduces a to a scalar by averaging every element.
func Mean(a *Value) *Value {
	out := tensor.Scalar(float32(a.T.Mean()))
	var node *Value
	node = newNode("mean", out, func() {
		if a.needGrad {
			d := node.Grad.Data[0] / float32(a.T.Numel())
			g := a.ensureGrad()
			for i := range g.Data {
				g.Data[i] += d
			}
		}
	}, a)
	return node
}

// Reshape returns a view of a with a new shape (same element count).
// Gradients are reshaped back transparently.
func Reshape(a *Value, shape ...int) *Value {
	out := a.T.Reshape(shape...)
	var node *Value
	node = newNode("reshape", out, func() {
		if a.needGrad {
			a.ensureGrad().AddInPlace(node.Grad.Reshape(a.T.Shape...))
		}
	}, a)
	return node
}

// Concat joins the inputs along the given axis. All other dimensions
// must match. This is the op behind DenseNet's dense connections and
// DDnet's global shortcuts.
func Concat(axis int, vs ...*Value) *Value {
	if len(vs) == 1 {
		return vs[0]
	}
	rank := vs[0].T.Rank()
	var shapeArr [8]int
	outShape := shapeArr[:rank]
	copy(outShape, vs[0].T.Shape)
	outShape[axis] = 0
	for _, v := range vs {
		if v.T.Rank() != rank {
			panic("ag: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && v.T.Shape[d] != vs[0].T.Shape[d] {
				panic("ag: Concat non-axis dimension mismatch")
			}
		}
		outShape[axis] += v.T.Shape[axis]
	}
	out := tensor.New(outShape...)
	// Copy each input block into its slot along the axis.
	outer, inner := concatExtents(outShape, axis)
	outAxis := outShape[axis]
	offset := 0
	for _, v := range vs {
		ax := v.T.Shape[axis]
		for o := 0; o < outer; o++ {
			copy(out.Data[(o*outAxis+offset)*inner:][:ax*inner], v.T.Data[o*ax*inner:(o+1)*ax*inner])
		}
		offset += ax
	}

	parents := make([]*Value, len(vs))
	copy(parents, vs)
	var node *Value
	node = newNode("concat", out, func() {
		offset := 0
		for _, v := range parents {
			ax := v.T.Shape[axis]
			if v.needGrad {
				g := v.ensureGrad()
				for o := 0; o < outer; o++ {
					src := node.Grad.Data[(o*outAxis+offset)*inner : (o*outAxis+offset)*inner+ax*inner]
					dst := g.Data[o*ax*inner : (o+1)*ax*inner]
					for i, d := range src {
						dst[i] += d
					}
				}
			}
			offset += ax
		}
	}, parents...)
	return node
}
