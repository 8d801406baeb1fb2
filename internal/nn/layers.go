package nn

import (
	"math/rand"

	"computecovid19/internal/ag"
	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// Conv2D is a trainable 2D convolution layer — or, with Transposed set,
// a transposed convolution (deconvolution), the reconstruction operator
// of DDnet. The two differ only in weight layout, (outCh, inCh, k, k)
// against (inCh, outCh, k, k), and in the kernel they dispatch to. Both
// are stride-1 "same" layers with an odd kernel, the only shape the
// networks use: the output keeps the input's height and width.
type Conv2D struct {
	W, B       *ag.Value
	Transposed bool
}

// NewConv2D builds a conv layer with weights drawn from N(0, std²); bias
// (if used) starts at zero. Pass std <= 0 for the paper's default 0.01.
func NewConv2D(rng *rand.Rand, inCh, outCh, kernel int, bias bool, std float64) *Conv2D {
	return newConv2D(rng, tensor.New(outCh, inCh, kernel, kernel), outCh, bias, std)
}

// NewConvTranspose2D builds a deconv layer with Gaussian-initialized
// weights of shape (inCh, outCh, k, k).
func NewConvTranspose2D(rng *rand.Rand, inCh, outCh, kernel int, bias bool, std float64) *Conv2D {
	l := newConv2D(rng, tensor.New(inCh, outCh, kernel, kernel), outCh, bias, std)
	l.Transposed = true
	return l
}

func newConv2D(rng *rand.Rand, w *tensor.Tensor, outCh int, bias bool, std float64) *Conv2D {
	if std <= 0 {
		std = 0.01
	}
	GaussianInit(w, rng, 0, std)
	l := &Conv2D{W: ag.Param(w)}
	if bias {
		l.B = ag.Param(tensor.New(outCh))
	}
	return l
}

// Forward applies the (transposed) convolution on the autograd tape.
func (l *Conv2D) Forward(x *ag.Value) *ag.Value {
	if l.Transposed {
		return ag.ConvTranspose2D(x, l.W, l.B)
	}
	return ag.Conv2D(x, l.W, l.B)
}

// Params returns the weight (and bias, when present).
func (l *Conv2D) Params() []*ag.Value {
	if l.B != nil {
		return []*ag.Value{l.W, l.B}
	}
	return []*ag.Value{l.W}
}

// SetTraining is a no-op for convolutions.
func (l *Conv2D) SetTraining(bool) {}

// Conv3D is a trainable 3D convolution layer for volumetric networks,
// a stride-1 "same" one with an odd cubic kernel.
type Conv3D struct {
	W, B *ag.Value
}

// NewConv3D builds a 3D conv layer with Gaussian-initialized weights.
func NewConv3D(rng *rand.Rand, inCh, outCh, kernel int, bias bool, std float64) *Conv3D {
	if std <= 0 {
		std = 0.01
	}
	w := tensor.New(outCh, inCh, kernel, kernel, kernel)
	GaussianInit(w, rng, 0, std)
	l := &Conv3D{W: ag.Param(w)}
	if bias {
		l.B = ag.Param(tensor.New(outCh))
	}
	return l
}

// Forward applies the 3D convolution.
func (l *Conv3D) Forward(x *ag.Value) *ag.Value { return ag.Conv3D(x, l.W, l.B) }

// Params returns the weight (and bias, when present).
func (l *Conv3D) Params() []*ag.Value {
	if l.B != nil {
		return []*ag.Value{l.W, l.B}
	}
	return []*ag.Value{l.W}
}

// SetTraining is a no-op for convolutions.
func (l *Conv3D) SetTraining(bool) {}

// BatchNorm is a rank-generic batch-normalization layer ((N, C, ...)
// inputs), covering both BatchNorm2d and BatchNorm3d.
type BatchNorm struct {
	Gamma, Beta             *ag.Value
	RunningMean, RunningVar *tensor.Tensor
	Momentum, Eps           float32
	training                bool
}

// NewBatchNorm builds a batch-norm layer over ch channels with γ=1, β=0,
// running mean 0 and running variance 1.
func NewBatchNorm(ch int) *BatchNorm {
	return &BatchNorm{
		Gamma:       ag.Param(tensor.New(ch).Fill(1)),
		Beta:        ag.Param(tensor.New(ch)),
		RunningMean: tensor.New(ch),
		RunningVar:  tensor.New(ch).Fill(1),
		Momentum:    0.1,
		Eps:         1e-5,
		training:    true,
	}
}

// Forward normalizes x with batch statistics (training) or running
// statistics (eval).
func (l *BatchNorm) Forward(x *ag.Value) *ag.Value {
	return ag.BatchNorm(x, l.Gamma, l.Beta, l.RunningMean, l.RunningVar,
		l.training, l.Momentum, l.Eps)
}

// Params returns γ and β.
func (l *BatchNorm) Params() []*ag.Value { return []*ag.Value{l.Gamma, l.Beta} }

// SetTraining selects batch versus running statistics. The write is
// skipped when the mode is unchanged, so once a network is in eval mode
// (core.Pipeline.Warm) repeated SetTraining(false) calls from concurrent
// inference paths are pure reads and race-free.
func (l *BatchNorm) SetTraining(train bool) {
	if l.training != train {
		l.training = train
	}
}

func (l *BatchNorm) stateTensors() []*tensor.Tensor {
	return []*tensor.Tensor{l.RunningMean, l.RunningVar}
}

// Linear is a trainable fully connected layer.
type Linear struct {
	W, B *ag.Value
}

// NewLinear builds a fully connected layer with Gaussian-initialized
// weights of shape (out, in) and zero bias.
func NewLinear(rng *rand.Rand, in, out int, std float64) *Linear {
	if std <= 0 {
		std = 0.01
	}
	w := tensor.New(out, in)
	GaussianInit(w, rng, 0, std)
	return &Linear{W: ag.Param(w), B: ag.Param(tensor.New(out))}
}

// Forward applies x·Wᵀ + b.
func (l *Linear) Forward(x *ag.Value) *ag.Value { return ag.Linear(x, l.W, l.B) }

// Infer applies x·Wᵀ + b on plain tensors drawn from sc, with no tape:
// the classifier head of the eval forward.
func (l *Linear) Infer(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	return ag.EvalLinear(sc, x, l.W.T, l.B.T)
}

// Params returns the weight and bias.
func (l *Linear) Params() []*ag.Value { return []*ag.Value{l.W, l.B} }

// SetTraining is a no-op for linear layers.
func (l *Linear) SetTraining(bool) {}
