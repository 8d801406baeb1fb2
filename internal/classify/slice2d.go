package classify

import (
	"math/rand"

	"computecovid19/internal/ag"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// Slice2D is the 2D-CNN baseline the paper's related work builds on
// (§6.2.1: He et al., M-inception, DRE-Net all classify individual 2D
// slices). A volume is scored by aggregating per-slice probabilities.
// The paper's Table 10 contrasts these 2D pipelines — which need manual
// slice selection — with its own 3D approach; this type exists to run
// that comparison on equal data.
type Slice2D struct {
	net *nn.Sequential
	fc  *nn.Linear
}

// NewSlice2D builds a small 2D CNN (conv-BN-ReLU-pool ×3, GAP-style
// collapse, linear head). Input slices are (H, W) normalized to [0, 1];
// H and W must be divisible by 8.
func NewSlice2D(rng *rand.Rand, channels int, std float64) *Slice2D {
	if channels <= 0 {
		channels = 8
	}
	if std <= 0 {
		std = 0.05
	}
	net := nn.NewSequential(
		nn.NewConv2D(rng, 1, channels, 3, false, std),
		nn.NewBatchNorm(channels),
		nn.ReLU(),
		nn.MaxPool2D(2, 2, 0),
		nn.NewConv2D(rng, channels, 2*channels, 3, false, std),
		nn.NewBatchNorm(2*channels),
		nn.ReLU(),
		nn.MaxPool2D(2, 2, 0),
		nn.NewConv2D(rng, 2*channels, 2*channels, 3, false, std),
		nn.NewBatchNorm(2*channels),
		nn.ReLU(),
		nn.MaxPool2D(2, 2, 0),
	)
	return &Slice2D{net: net, fc: nn.NewLinear(rng, 2*channels, 1, std)}
}

// Forward maps (N, 1, H, W) slices to (N, 1) logits.
func (s *Slice2D) Forward(x *ag.Value) *ag.Value {
	h := s.net.Forward(x)
	// Global average pool over the remaining spatial extent.
	n, c, hh, ww := h.T.Shape[0], h.T.Shape[1], h.T.Shape[2], h.T.Shape[3]
	h = ag.Reshape(h, n, c, 1, hh, ww)
	h = ag.GlobalAvgPool3D(h)
	return s.fc.Forward(h)
}

// Params returns the trainable parameters.
func (s *Slice2D) Params() []*ag.Value {
	return append(s.net.Params(), s.fc.Params()...)
}

// SetTraining toggles batch-norm behaviour.
func (s *Slice2D) SetTraining(train bool) { s.net.SetTraining(train) }

// TrainWeaklyLabelled fits the 2D baseline on volumes whose only label
// is scan-level (the weak-label regime that §6.2.1's systems avoid by
// manually selecting lesion slices): every slice inherits its volume's
// label. Volumes must be normalized to [0, 1]. Returns per-epoch loss.
func (s *Slice2D) TrainWeaklyLabelled(vols []*volume.Volume, labels []bool,
	epochs, batch int, lr float64, seed int64) []float64 {

	rng := rand.New(rand.NewSource(seed))
	opt := nn.NewAdam(s.Params(), lr)
	s.SetTraining(true)

	type sample struct {
		vol, z int
	}
	var samples []sample
	for vi, v := range vols {
		for z := 0; z < v.D; z++ {
			samples = append(samples, sample{vol: vi, z: z})
		}
	}
	h, w := vols[0].H, vols[0].W

	var curve []float64
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
		total, steps := 0.0, 0
		for start := 0; start < len(samples); start += batch {
			end := start + batch
			if end > len(samples) {
				end = len(samples)
			}
			b := end - start
			x := tensor.New(b, 1, h, w)
			y := tensor.New(b, 1)
			for bi, sm := range samples[start:end] {
				copy(x.Data[bi*h*w:(bi+1)*h*w], vols[sm.vol].Slice(sm.z))
				if labels[sm.vol] {
					y.Data[bi] = 1
				}
			}
			opt.ZeroGrad()
			loss := Loss(s.Forward(ag.Const(x)), ag.Const(y))
			loss.Backward()
			opt.Step()
			total += float64(loss.Scalar())
			steps++
		}
		curve = append(curve, total/float64(steps))
	}
	// Batch-norm recalibration.
	for pass := 0; pass < 4; pass++ {
		for start := 0; start < len(samples); start += batch {
			end := start + batch
			if end > len(samples) {
				end = len(samples)
			}
			b := end - start
			x := tensor.New(b, 1, h, w)
			for bi, sm := range samples[start:end] {
				copy(x.Data[bi*h*w:(bi+1)*h*w], vols[sm.vol].Slice(sm.z))
			}
			s.Forward(ag.Const(x))
		}
	}
	s.SetTraining(false)
	return curve
}

// PredictVolume scores a normalized volume as the maximum per-slice
// probability (a lesion anywhere makes the scan positive).
func (s *Slice2D) PredictVolume(v *volume.Volume) float64 {
	s.SetTraining(false)
	x := tensor.FromSlice(v.Data, v.D, 1, v.H, v.W)
	probs := ag.Sigmoid(s.Forward(ag.Const(x)))
	best := 0.0
	for _, p := range probs.T.Data {
		if float64(p) > best {
			best = float64(p)
		}
	}
	return best
}
