// Package nn builds the neural-network module layer on top of the
// autograd engine: parameterized layers (convolutions, batch norm,
// linear), the Sequential container, the Adam optimizer and
// learning-rate schedules, plus binary model serialization.
//
// It plays the role of torch.nn / torch.optim in the paper's stack.
package nn

import (
	"math/rand"

	"computecovid19/internal/ag"
	"computecovid19/internal/tensor"
)

// Module is a composable network component.
type Module interface {
	// Forward applies the module to x on the autograd tape.
	Forward(x *ag.Value) *ag.Value
	// Params returns the trainable parameters in a stable order.
	Params() []*ag.Value
	// SetTraining toggles training-time behaviour (batch-norm statistics).
	SetTraining(train bool)
}

// state tensors (batch-norm running statistics) are serialized alongside
// parameters; modules with such state implement stateful.
type stateful interface {
	stateTensors() []*tensor.Tensor
}

// Sequential chains modules, feeding each one's output to the next.
type Sequential struct {
	Mods []Module
}

// NewSequential builds a Sequential from the given modules.
func NewSequential(mods ...Module) *Sequential { return &Sequential{Mods: mods} }

// Forward applies every module in order.
func (s *Sequential) Forward(x *ag.Value) *ag.Value {
	for _, m := range s.Mods {
		x = m.Forward(x)
	}
	return x
}

// Params collects the parameters of every submodule.
func (s *Sequential) Params() []*ag.Value {
	var ps []*ag.Value
	for _, m := range s.Mods {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// SetTraining propagates the mode to every submodule.
func (s *Sequential) SetTraining(train bool) {
	for _, m := range s.Mods {
		m.SetTraining(train)
	}
}

func (s *Sequential) stateTensors() []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, m := range s.Mods {
		if st, ok := m.(stateful); ok {
			ts = append(ts, st.stateTensors()...)
		}
	}
	return ts
}

// StateTensors exposes the non-parameter state (batch-norm running
// statistics) of every submodule, satisfying StateProvider so external
// packages (model files, training checkpoints) can serialize a
// Sequential-based model without reaching into it.
func (s *Sequential) StateTensors() []*tensor.Tensor { return s.stateTensors() }

// Func wraps a stateless tape operation (activation, pooling, …) as a
// Module.
type Func struct {
	F func(x *ag.Value) *ag.Value
}

// Forward applies the wrapped function.
func (f *Func) Forward(x *ag.Value) *ag.Value { return f.F(x) }

// Params returns nil: Func has no parameters.
func (f *Func) Params() []*ag.Value { return nil }

// SetTraining is a no-op for stateless modules.
func (f *Func) SetTraining(bool) {}

// LeakyReLU returns a leaky-ReLU activation module. DDnet uses 0.01.
func LeakyReLU(slope float32) *Func {
	return &Func{F: func(x *ag.Value) *ag.Value { return ag.LeakyReLU(x, slope) }}
}

// ReLU returns a ReLU activation module.
func ReLU() *Func {
	return &Func{F: ag.ReLU}
}

// Sigmoid returns a sigmoid activation module.
func Sigmoid() *Func {
	return &Func{F: ag.Sigmoid}
}

// MaxPool2D returns a 2D max-pooling module.
func MaxPool2D(kernel, stride, padding int) *Func {
	cfg := ag.Pool2DConfig{Kernel: kernel, Stride: stride, Padding: padding}
	return &Func{F: func(x *ag.Value) *ag.Value { return ag.MaxPool2D(x, cfg) }}
}

// AvgPool2D returns a 2D average-pooling module.
func AvgPool2D(kernel, stride, padding int) *Func {
	cfg := ag.Pool2DConfig{Kernel: kernel, Stride: stride, Padding: padding}
	return &Func{F: func(x *ag.Value) *ag.Value { return ag.AvgPool2D(x, cfg) }}
}

// MaxPool3D returns a 3D max-pooling module.
func MaxPool3D(kernel, stride, padding int) *Func {
	cfg := ag.Pool2DConfig{Kernel: kernel, Stride: stride, Padding: padding}
	return &Func{F: func(x *ag.Value) *ag.Value { return ag.MaxPool3D(x, cfg) }}
}

// GaussianInit fills t from N(mean, std²), the paper's filter
// initialization (§3.1.1: mean 0, std 0.01).
func GaussianInit(t *tensor.Tensor, rng *rand.Rand, mean, std float64) {
	t.RandN(rng, mean, std)
}
