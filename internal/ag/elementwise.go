package ag

import (
	"fmt"
	"math"

	"computecovid19/internal/kernels"
	"computecovid19/internal/tensor"
)

func mustSameShape(op string, a, b *Value) {
	if !a.T.SameShape(b.T) {
		panic(fmt.Sprintf("ag: %s shape mismatch %v vs %v", op, a.T.Shape, b.T.Shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Value) *Value {
	mustSameShape("Add", a, b)
	out := a.T.Add(b.T)
	var node *Value
	node = newNode("add", out, func() {
		if a.needGrad {
			a.ensureGrad().AddInPlace(node.Grad)
		}
		if b.needGrad {
			b.ensureGrad().AddInPlace(node.Grad)
		}
	}, a, b)
	return node
}

// Sub returns a - b elementwise.
func Sub(a, b *Value) *Value {
	mustSameShape("Sub", a, b)
	out := a.T.Sub(b.T)
	var node *Value
	node = newNode("sub", out, func() {
		if a.needGrad {
			a.ensureGrad().AddInPlace(node.Grad)
		}
		if b.needGrad {
			b.ensureGrad().SubInPlace(node.Grad)
		}
	}, a, b)
	return node
}

// Mul returns the elementwise (Hadamard) product a * b.
func Mul(a, b *Value) *Value {
	mustSameShape("Mul", a, b)
	out := a.T.Mul(b.T)
	var node *Value
	node = newNode("mul", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				g.Data[i] += d * b.T.Data[i]
			}
		}
		if b.needGrad {
			g := b.ensureGrad()
			for i, d := range node.Grad.Data {
				g.Data[i] += d * a.T.Data[i]
			}
		}
	}, a, b)
	return node
}

// Div returns a / b elementwise. The caller is responsible for keeping b
// away from zero (the SSIM formulas add stabilizing constants).
func Div(a, b *Value) *Value {
	mustSameShape("Div", a, b)
	out := tensor.New(a.T.Shape...)
	for i := range out.Data {
		out.Data[i] = a.T.Data[i] / b.T.Data[i]
	}
	var node *Value
	node = newNode("div", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				g.Data[i] += d / b.T.Data[i]
			}
		}
		if b.needGrad {
			g := b.ensureGrad()
			for i, d := range node.Grad.Data {
				bv := b.T.Data[i]
				g.Data[i] -= d * a.T.Data[i] / (bv * bv)
			}
		}
	}, a, b)
	return node
}

// Neg returns -a.
func Neg(a *Value) *Value { return MulConst(a, -1) }

// AddConst returns a + c elementwise.
func AddConst(a *Value, c float32) *Value {
	out := a.T.Clone()
	for i := range out.Data {
		out.Data[i] += c
	}
	var node *Value
	node = newNode("addconst", out, func() {
		if a.needGrad {
			a.ensureGrad().AddInPlace(node.Grad)
		}
	}, a)
	return node
}

// MulConst returns c * a elementwise.
func MulConst(a *Value, c float32) *Value {
	out := a.T.Scale(c)
	var node *Value
	node = newNode("mulconst", out, func() {
		if a.needGrad {
			a.ensureGrad().AxpyInPlace(c, node.Grad)
		}
	}, a)
	return node
}

// Square returns a² elementwise.
func Square(a *Value) *Value {
	out := a.T.Mul(a.T)
	var node *Value
	node = newNode("square", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				g.Data[i] += 2 * d * a.T.Data[i]
			}
		}
	}, a)
	return node
}

// Sqrt returns √a elementwise. Inputs must be non-negative.
func Sqrt(a *Value) *Value {
	out := a.T.Clone().Apply(func(v float32) float32 {
		return float32(math.Sqrt(float64(v)))
	})
	var node *Value
	node = newNode("sqrt", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				g.Data[i] += d * 0.5 / out.Data[i]
			}
		}
	}, a)
	return node
}

// PowConst returns a^p elementwise for a constant exponent (used by the
// MS-SSIM per-scale weights). Inputs should be positive when p is
// non-integer.
func PowConst(a *Value, p float32) *Value {
	out := a.T.Clone().Apply(func(v float32) float32 {
		return float32(math.Pow(float64(v), float64(p)))
	})
	var node *Value
	node = newNode("powconst", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				g.Data[i] += d * p * float32(math.Pow(float64(a.T.Data[i]), float64(p-1)))
			}
		}
	}, a)
	return node
}

// Exp returns e^a elementwise.
func Exp(a *Value) *Value {
	out := a.T.Clone().Apply(func(v float32) float32 {
		return float32(math.Exp(float64(v)))
	})
	var node *Value
	node = newNode("exp", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				g.Data[i] += d * out.Data[i]
			}
		}
	}, a)
	return node
}

// Log returns the natural logarithm elementwise. Inputs must be positive.
func Log(a *Value) *Value {
	out := a.T.Clone().Apply(func(v float32) float32 {
		return float32(math.Log(float64(v)))
	})
	var node *Value
	node = newNode("log", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				g.Data[i] += d / a.T.Data[i]
			}
		}
	}, a)
	return node
}

// Abs returns |a| elementwise. The gradient at zero is taken as zero.
func Abs(a *Value) *Value {
	out := a.T.Clone().Apply(func(v float32) float32 {
		if v < 0 {
			return -v
		}
		return v
	})
	var node *Value
	node = newNode("abs", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				switch {
				case a.T.Data[i] > 0:
					g.Data[i] += d
				case a.T.Data[i] < 0:
					g.Data[i] -= d
				}
			}
		}
	}, a)
	return node
}

// LeakyReLU applies max(x, slope*x) elementwise. DDnet uses slope 0.01.
func LeakyReLU(a *Value, slope float32) *Value {
	out := a.T.Clone()
	kernels.LeakyReLU(out.Data, slope, 1)
	var node *Value
	node = newNode("leakyrelu", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				if a.T.Data[i] < 0 {
					g.Data[i] += d * slope
				} else {
					g.Data[i] += d
				}
			}
		}
	}, a)
	return node
}

// ReLU applies max(x, 0) elementwise.
func ReLU(a *Value) *Value { return LeakyReLU(a, 0) }

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Value) *Value {
	out := a.T.Clone().Apply(EvalSigmoid)
	var node *Value
	node = newNode("sigmoid", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				y := out.Data[i]
				g.Data[i] += d * y * (1 - y)
			}
		}
	}, a)
	return node
}

// Tanh applies the hyperbolic tangent elementwise.
func Tanh(a *Value) *Value {
	out := a.T.Clone().Apply(func(v float32) float32 {
		return float32(math.Tanh(float64(v)))
	})
	var node *Value
	node = newNode("tanh", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				y := out.Data[i]
				g.Data[i] += d * (1 - y*y)
			}
		}
	}, a)
	return node
}

// Clamp limits a to [lo, hi]; gradients pass only where the input is
// strictly inside the interval.
func Clamp(a *Value, lo, hi float32) *Value {
	out := a.T.Clone().Clamp(lo, hi)
	var node *Value
	node = newNode("clamp", out, func() {
		if a.needGrad {
			g := a.ensureGrad()
			for i, d := range node.Grad.Data {
				v := a.T.Data[i]
				if v > lo && v < hi {
					g.Data[i] += d
				}
			}
		}
	}, a)
	return node
}
