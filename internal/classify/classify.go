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

// Classifier is the 3D DenseNet COVID classifier. Its embedded Trunk
// holds one unit per walk layer (Units[l.index] belongs to layer l) and
// the compiled plan PredictPooled runs; StateTensors and SetTraining
// are the Trunk's, and Params adds the linear head after the units.
type Classifier struct {
	Cfg Config
	nn.Trunk
	fc *nn.Linear
}

// New constructs a classifier with Gaussian-initialized weights drawn
// from rng in walk order.
func New(rng *rand.Rand, cfg Config) *Classifier {
	b := &builder{rng: rng, std: cfg.InitStd}
	width := walk[int](cfg, b, 1)
	return &Classifier{Cfg: cfg, Trunk: nn.Trunk{Units: b.units}, fc: nn.NewLinear(rng, width, 1, cfg.InitStd)}
}

// features maps (N, 1, D, H, W) volumes to the pooled (N, C) feature
// vector the head reads, on the autograd tape.
func (c *Classifier) features(x *ag.Value) *ag.Value {
	return ag.GlobalAvgPool3D(walk[*ag.Value](c.Cfg, graph(c.Units), x))
}

// Forward maps (N, 1, D, H, W) volumes to (N, 1) logits. D, H, W must be
// divisible by 2^(len(BlockLayers)-1) plus the stem pool (2× more).
func (c *Classifier) Forward(x *ag.Value) *ag.Value { return c.fc.Forward(c.features(x)) }

// Params returns every trainable parameter: the trunk's in walk order,
// then the linear head's.
func (c *Classifier) Params() []*ag.Value { return append(c.Trunk.Params(), c.fc.Params()...) }

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
