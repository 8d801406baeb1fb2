// Package tensor implements the dense float32 N-dimensional array that
// every numeric component in this repository is built on: the autograd
// engine (internal/ag), the neural-network layers (internal/nn), the CT
// simulator (internal/ctsim) and the standalone inference kernels
// (internal/kernels).
//
// Tensors are row-major and store their elements in one flat slice, the
// same layout the paper's OpenCL kernels use, so the kernel packages can
// operate on Tensor.Data directly without copies.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense row-major float32 array of arbitrary rank.
// The zero value is an empty scalar-less tensor; use New or FromSlice.
type Tensor struct {
	// Data holds the elements in row-major order. Kernels may alias it.
	Data []float32
	// Shape holds the extent of each dimension. It must not be mutated
	// after construction; use Reshape to obtain a different view.
	Shape []int
}

// New returns a zero-filled tensor with the given shape. A call with no
// dimensions returns a rank-0 tensor holding a single element.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			// Formatting a copy keeps shape itself from escaping, so
			// callers' variadic arrays stay on their stacks.
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, append([]int(nil), shape...)))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: make([]float32, n), Shape: s}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// It panics if the element count does not match the shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d", shape, n, len(data)))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: data, Shape: s}
}

// Scalar returns a rank-0 tensor holding v.
func Scalar(v float32) *Tensor {
	return &Tensor{Data: []float32{v}, Shape: nil}
}

// Numel reports the total number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Rank reports the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i, d := range t.Shape {
		if o.Shape[i] != d {
			return false
		}
	}
	return true
}

// Index converts multi-dimensional coordinates to a flat offset.
func (t *Tensor) Index(idx ...int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: got %d indices for rank-%d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.Shape[i]))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// At returns the element at the given coordinates.
func (t *Tensor) At(idx ...int) float32 { return t.Data[t.Index(idx...)] }

// Set stores v at the given coordinates.
func (t *Tensor) Set(v float32, idx ...int) { t.Data[t.Index(idx...)] = v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view sharing t's data with a new shape of equal
// element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elems) to %v (%d elems)",
			t.Shape, len(t.Data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Data: t.Data, Shape: s}
}

// Fill sets every element to v and returns t.
func (t *Tensor) Fill(v float32) *Tensor {
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Zero sets every element to zero and returns t.
func (t *Tensor) Zero() *Tensor {
	clear(t.Data)
	return t
}

// Apply replaces each element x with f(x) and returns t.
func (t *Tensor) Apply(f func(float32) float32) *Tensor {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
	return t
}

// AddInPlace accumulates o into t elementwise and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustMatch(o, "AddInPlace")
	for i, v := range o.Data {
		t.Data[i] += v
	}
	return t
}

// SubInPlace subtracts o from t elementwise and returns t.
func (t *Tensor) SubInPlace(o *Tensor) *Tensor {
	t.mustMatch(o, "SubInPlace")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
	return t
}

// MulInPlace multiplies t by o elementwise and returns t.
func (t *Tensor) MulInPlace(o *Tensor) *Tensor {
	t.mustMatch(o, "MulInPlace")
	for i, v := range o.Data {
		t.Data[i] *= v
	}
	return t
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float32) *Tensor {
	for i := range t.Data {
		t.Data[i] *= s
	}
	return t
}

// AxpyInPlace computes t += alpha*o elementwise and returns t.
func (t *Tensor) AxpyInPlace(alpha float32, o *Tensor) *Tensor {
	t.mustMatch(o, "AxpyInPlace")
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
	return t
}

// Add returns t + o as a new tensor.
func (t *Tensor) Add(o *Tensor) *Tensor { return t.Clone().AddInPlace(o) }

// Sub returns t - o as a new tensor.
func (t *Tensor) Sub(o *Tensor) *Tensor { return t.Clone().SubInPlace(o) }

// Mul returns the elementwise product t * o as a new tensor.
func (t *Tensor) Mul(o *Tensor) *Tensor { return t.Clone().MulInPlace(o) }

// Scale returns alpha*t as a new tensor.
func (t *Tensor) Scale(alpha float32) *Tensor { return t.Clone().ScaleInPlace(alpha) }

func (t *Tensor) mustMatch(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, o.Shape))
	}
}

// Sum returns the sum of all elements in float64 precision.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements, or 0 for an empty
// tensor.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Min returns the smallest element. It panics on an empty tensor.
func (t *Tensor) Min() float32 {
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Max returns the largest element. It panics on an empty tensor.
func (t *Tensor) Max() float32 {
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the flat index of the largest element (first occurrence).
func (t *Tensor) ArgMax() int {
	best, bi := t.Data[0], 0
	for i, v := range t.Data[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Std returns the population standard deviation of the elements.
func (t *Tensor) Std() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	mu := t.Mean()
	s := 0.0
	for _, v := range t.Data {
		d := float64(v) - mu
		s += d * d
	}
	return math.Sqrt(s / float64(len(t.Data)))
}

// Dot returns the inner product of t and o in float64 precision.
func (t *Tensor) Dot(o *Tensor) float64 {
	t.mustMatch(o, "Dot")
	s := 0.0
	for i, v := range t.Data {
		s += float64(v) * float64(o.Data[i])
	}
	return s
}

// Clamp limits every element to [lo, hi] and returns t.
func (t *Tensor) Clamp(lo, hi float32) *Tensor {
	for i, v := range t.Data {
		if v < lo {
			t.Data[i] = lo
		} else if v > hi {
			t.Data[i] = hi
		}
	}
	return t
}

// RandN fills t with samples from N(mean, std²) drawn from rng and
// returns t. It is used for the paper's Gaussian(0, 0.01) filter init.
func (t *Tensor) RandN(rng *rand.Rand, mean, std float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64()*std + mean)
	}
	return t
}

// RandU fills t with uniform samples from [lo, hi) drawn from rng and
// returns t.
func (t *Tensor) RandU(rng *rand.Rand, lo, hi float64) *Tensor {
	for i := range t.Data {
		t.Data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

// AllClose reports whether every element of t is within tol of the
// corresponding element of o.
func (t *Tensor) AllClose(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.Data {
		if math.Abs(float64(v)-float64(o.Data[i])) > tol {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute elementwise difference between
// t and o.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	t.mustMatch(o, "MaxAbsDiff")
	m := 0.0
	for i, v := range t.Data {
		d := math.Abs(float64(v) - float64(o.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// String renders a compact description (shape plus a few leading
// elements) for debugging.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.Shape)
	n := len(t.Data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.Data[i])
	}
	if len(t.Data) > 8 {
		b.WriteString(", ...")
	}
	b.WriteString("]")
	return b.String()
}
