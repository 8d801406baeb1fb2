// Package classify implements Classification AI (§2.3.2): a DenseNet
// adapted for 3D volume classification, emitting the probability that a
// chest CT volume shows COVID-19 findings. The paper uses DenseNet-121
// through NVIDIA's Clara pipeline with binary cross-entropy loss and
// Adam (§3.3.1); this package builds the same architecture family from
// our own layers, with a configurable size so tests and demos run on a
// CPU.
package classify

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"computecovid19/internal/ag"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// Config selects the DenseNet-3D architecture.
type Config struct {
	// InitChannels is the stem width (DenseNet-121: 64).
	InitChannels int
	// Growth is the dense-block growth rate (DenseNet-121: 32).
	Growth int
	// BlockLayers lists the number of dense layers per block
	// (DenseNet-121: 6, 12, 24, 16).
	BlockLayers []int
	// Kernel is the growth-convolution kernel (3 in DenseNet).
	Kernel int
	// InitStd is the Gaussian initialization std.
	InitStd float64
}

// SmallConfig returns a 3D DenseNet that trains in seconds on small
// synthetic volumes while keeping the 121 topology (stem, dense blocks
// with transitions, global pooling, linear head). The paper's
// DenseNet-121 adapted to 3D is Config{InitChannels: 64, Growth: 32,
// BlockLayers: []int{6, 12, 24, 16}, Kernel: 3, InitStd: 0.01}; at
// full 512×512×n input that is far beyond laptop-CPU inference.
func SmallConfig() Config {
	return Config{InitChannels: 8, Growth: 6, BlockLayers: []int{2, 2, 2}, Kernel: 3, InitStd: 0.05}
}

// Classifier is the 3D DenseNet COVID classifier.
type Classifier struct {
	Cfg Config

	// units holds the trunk's weights in walk order (units[l.index]
	// belongs to layer l), which is also the Params/StateTensors — and
	// so the checkpoint — order; the linear head follows them.
	units []unit
	fc    *nn.Linear

	// Compiled plan (plan.go), one entry per unit. Nil until Warm;
	// dropped on SetTraining(true). planMu serializes compilation.
	planMu sync.Mutex
	plan   atomic.Pointer[[]folded]
}

// New constructs a classifier with Gaussian-initialized weights drawn
// from rng in walk order.
func New(rng *rand.Rand, cfg Config) *Classifier {
	b := &builder{rng: rng, std: cfg.InitStd}
	width := walk[int](cfg, b, 1)
	return &Classifier{Cfg: cfg, units: b.units, fc: nn.NewLinear(rng, width, 1, cfg.InitStd)}
}

// features maps (N, 1, D, H, W) volumes to the pooled (N, C) feature
// vector the head reads, on the autograd tape.
func (c *Classifier) features(x *ag.Value) *ag.Value {
	return ag.GlobalAvgPool3D(walk[*ag.Value](c.Cfg, graph(c.units), x))
}

// Forward maps (N, 1, D, H, W) volumes to (N, 1) logits. D, H, W must be
// divisible by 2^(len(BlockLayers)-1) plus the stem pool (2× more).
func (c *Classifier) Forward(x *ag.Value) *ag.Value { return c.fc.Forward(c.features(x)) }

// trunkParams returns the parameters below the linear head.
func (c *Classifier) trunkParams() []*ag.Value {
	var ps []*ag.Value
	for _, u := range c.units {
		if u.conv != nil {
			ps = append(ps, u.conv.Params()...)
		}
		if u.bn != nil {
			ps = append(ps, u.bn.Params()...)
		}
	}
	return ps
}

// Params returns every trainable parameter, in walk order.
func (c *Classifier) Params() []*ag.Value { return append(c.trunkParams(), c.fc.Params()...) }

// SetTraining toggles batch-norm behaviour network-wide. Entering
// training mode drops any compiled plan: its folded weights bake in
// statistics and weights that are about to change. Leaving it compiles
// nothing (that is Warm's job), so the SetTraining(false) on every
// inference entry point stays a pure read.
func (c *Classifier) SetTraining(train bool) {
	if train {
		c.plan.Store(nil)
	}
	for _, u := range c.units {
		if u.bn != nil {
			u.bn.SetTraining(train)
		}
	}
}

// StateTensors exposes batch-norm running statistics for serialization.
func (c *Classifier) StateTensors() []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, u := range c.units {
		if u.bn != nil {
			ts = append(ts, u.bn.RunningMean, u.bn.RunningVar)
		}
	}
	return ts
}

// Predict runs the classifier in eval mode on one volume (values already
// normalized / in HU per the training convention) and returns the
// COVID-positive probability.
func (c *Classifier) Predict(v *volume.Volume) float64 {
	c.SetTraining(false)
	x := ag.Const(tensor.FromSlice(v.Data, 1, 1, v.D, v.H, v.W))
	logit := c.Forward(x)
	return float64(ag.Sigmoid(logit).Scalar())
}

// Loss is the paper's classification objective: binary cross-entropy
// (Equation 2), computed in the fused logits form for stability.
func Loss(logits, labels *ag.Value) *ag.Value {
	return ag.BCEWithLogitsLoss(logits, labels)
}

// Augment applies the paper's §3.3.1 training augmentations in place on
// a [0,1]-normalized volume copy and returns it: Gaussian noise with
// probability 0.75, contrast adjustment with probability 0.5, and
// intensity scaling. The perturbation magnitudes are scaled down from
// the paper's HU-domain values to our [0,1] range so augmentation
// regularizes without drowning the lesion contrast.
func Augment(rng *rand.Rand, v *tensor.Tensor) *tensor.Tensor {
	out := v.Clone()
	if rng.Float64() < 0.75 {
		std := 0.02
		for i := range out.Data {
			out.Data[i] += float32(rng.NormFloat64() * std)
		}
	}
	if rng.Float64() < 0.5 {
		// Contrast: pivot around the mean.
		mean := float32(out.Mean())
		gamma := float32(0.9 + 0.2*rng.Float64())
		for i := range out.Data {
			out.Data[i] = mean + (out.Data[i]-mean)*gamma
		}
	}
	scale := float32(1 + (rng.Float64()-0.5)*0.1) // magnitude 0.05
	out.ScaleInPlace(scale)
	return out
}
