package nn

import (
	"math"

	"computecovid19/internal/ag"
	"computecovid19/internal/tensor"
)

// Optimizer updates a set of parameters from their accumulated
// gradients.
type Optimizer interface {
	// Step applies one update using the gradients currently stored on the
	// parameters.
	Step()
	// ZeroGrad clears the gradients of every managed parameter.
	ZeroGrad()
	// SetLR changes the learning rate (used by schedulers).
	SetLR(lr float64)
	// LR reports the current learning rate.
	LR() float64
}

// Adam implements Kingma & Ba's optimizer, the one both DDnet and the
// classifier are trained with in the paper (§3.1.1, §3.3.1).
type Adam struct {
	params []*ag.Value
	lr     float64
	beta1  float64
	beta2  float64
	eps    float64
	t      int
	m, v   []*tensor.Tensor
}

// NewAdam builds an Adam optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(params []*ag.Value, lr float64) *Adam {
	a := &Adam{params: params, lr: lr, beta1: 0.9, beta2: 0.999, eps: 1e-8}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.T.Shape...)
		a.v[i] = tensor.New(p.T.Shape...)
	}
	return a
}

// Step applies one bias-corrected Adam update.
func (a *Adam) Step() {
	a.t++
	bc1 := 1 - math.Pow(a.beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.beta2, float64(a.t))
	stepSize := a.lr * math.Sqrt(bc2) / bc1
	for i, p := range a.params {
		if p.Grad == nil {
			continue
		}
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad.Data {
			m.Data[j] = float32(a.beta1)*m.Data[j] + float32(1-a.beta1)*g
			v.Data[j] = float32(a.beta2)*v.Data[j] + float32(1-a.beta2)*g*g
			p.T.Data[j] -= float32(stepSize) * m.Data[j] /
				(float32(math.Sqrt(float64(v.Data[j]))) + float32(a.eps))
		}
	}
}

// ZeroGrad clears every parameter gradient.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

// Moments exposes the live first- and second-moment tensors in parameter
// order. Checkpointing reads them to snapshot optimizer state and writes
// into them on restore; bias correction additionally needs StepCount.
func (a *Adam) Moments() (m, v []*tensor.Tensor) { return a.m, a.v }

// StepCount reports how many Step calls have been applied — the t in
// Adam's bias correction. A restored optimizer must continue from the
// saved count or the first post-restore steps are rescaled.
func (a *Adam) StepCount() int { return a.t }

// SetStepCount restores the bias-correction step counter.
func (a *Adam) SetStepCount(t int) { a.t = t }

// SetLR changes the learning rate.
func (a *Adam) SetLR(lr float64) { a.lr = lr }

// LR reports the current learning rate.
func (a *Adam) LR() float64 { return a.lr }

// ExponentialLR decays the optimizer's learning rate by a constant
// factor each epoch; the paper uses gamma = 0.8 for DDnet (§3.1.1).
type ExponentialLR struct {
	opt   Optimizer
	gamma float64
}

// NewExponentialLR wraps opt with exponential decay.
func NewExponentialLR(opt Optimizer, gamma float64) *ExponentialLR {
	return &ExponentialLR{opt: opt, gamma: gamma}
}

// StepEpoch multiplies the learning rate by gamma; call once per epoch.
func (e *ExponentialLR) StepEpoch() {
	e.opt.SetLR(e.opt.LR() * e.gamma)
}

// NumParams counts the total scalar parameters in params.
func NumParams(params []*ag.Value) int {
	n := 0
	for _, p := range params {
		n += p.T.Numel()
	}
	return n
}
