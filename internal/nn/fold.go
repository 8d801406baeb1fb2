package nn

import (
	"math"

	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
)

// Plan compilation: inference-mode BatchNorm is an affine map per
// channel — y = scale·x + shift with scale = γ/√(σ²+ε) and
// shift = β − μ·scale — so a conv→BN pair collapses into a single
// convolution with rescaled weights and a bias, and a BN that cannot
// fold into a neighbouring convolution still collapses its two passes
// (normalize, activate) into one precomputed scale/shift sweep. The
// folds below run once at Pipeline.Warm time (ddnet's plan compiler);
// the fused kernels consume the packed buffers every forward after
// that. Folding happens in float64 and narrows once, mirroring the
// float64 round-trip BatchNorm.Infer performs per call; agreement with
// the unfolded composition is property-tested against the ladder's
// documented ULP budget.

// FoldedConv is one plan-compiled convolution layer: packed weights in
// the (OutC, InC, K, K) layout the GEMM path consumes — BN-rescaled
// when a fold happened, spatially pre-flipped for transposed
// convolutions — plus the fused epilogue (bias and activation). Packed
// buffers are drawn from memplan at compile time and simply dropped on
// plan invalidation (never recycled, so an in-flight forward on a
// stale plan can never read a reused buffer).
type FoldedConv struct {
	W     []float32 // (OutC, InC, K, K), pre-flipped for deconvs
	Bias  []float32 // folded per-output-channel bias; nil when none
	Act   bool      // fused LeakyReLU
	Slope float32
	InC   int
	OutC  int
	K     int
}

// Epilogue returns the kernels-level epilogue of the folded layer.
func (f *FoldedConv) Epilogue() kernels.Epilogue {
	return kernels.Epilogue{Bias: f.Bias, Act: f.Act, Slope: f.Slope}
}

// FoldedBN is a plan-compiled BatchNorm(+LeakyReLU) for positions where
// no neighbouring convolution can absorb it: the per-channel affine is
// precomputed so the forward runs kernels.BNActInfer's single pass.
type FoldedBN struct {
	Scale, Shift []float32
	Slope        float32
}

// bnAffine returns channel ci's inference affine in float64.
func bnAffine(bn *BatchNorm, ci int) (scale, shift float64) {
	is := 1 / math.Sqrt(float64(bn.RunningVar.Data[ci])+float64(bn.Eps))
	g := float64(bn.Gamma.T.Data[ci]) * is
	return g, float64(bn.Beta.T.Data[ci]) - float64(bn.RunningMean.Data[ci])*g
}

func requireEval(bn *BatchNorm) {
	if bn != nil && bn.training {
		panic("nn: BN folding requires eval mode (call SetTraining(false) first)")
	}
}

// FoldConvBN compiles conv(→bn)(→LeakyReLU) into one FoldedConv.
// bn may be nil (no fold: the epilogue carries just the layer bias, if
// any, and the activation). Transposed-convolution weights are spatially
// flipped into the convolution layout once here (the layer-wise path
// pays DeconvGEMM's per-call flip instead). When nothing needs
// rewriting the packed weights alias the layer's own, so such layers
// cost no copy.
func FoldConvBN(conv *Conv2D, bn *BatchNorm, act bool, slope float32) *FoldedConv {
	requireEval(bn)
	outC, inC, k := conv.W.T.Shape[0], conv.W.T.Shape[1], conv.W.T.Shape[2]
	if conv.Transposed {
		outC, inC = inC, outC
	}
	f := &FoldedConv{Act: act, Slope: slope, InC: inC, OutC: outC, K: k, W: conv.W.T.Data}
	if conv.Transposed {
		f.W = memplan.GetFloats(len(conv.W.T.Data))
		kernels.FlipDeconvWeights(conv.W.T.Data, f.W, kernels.ConvShape{InC: inC, OutC: outC, K: k})
	} else if bn != nil {
		f.W = memplan.GetFloats(len(conv.W.T.Data))
		copy(f.W, conv.W.T.Data)
	}
	if bn == nil && conv.B == nil {
		return f
	}
	f.Bias = memplan.GetFloats(outC)
	row := inC * k * k
	for co := 0; co < outC; co++ {
		var scale, shift float64 = 1, 0
		if bn != nil {
			scale, shift = bnAffine(bn, co)
			for i := co * row; i < (co+1)*row; i++ {
				f.W[i] = float32(float64(f.W[i]) * scale)
			}
		}
		if conv.B != nil {
			shift += float64(conv.B.T.Data[co]) * scale
		}
		f.Bias[co] = float32(shift)
	}
	return f
}

// FoldBNAct compiles a standalone bn→LeakyReLU into the single-pass
// scale/shift form kernels.BNActInfer consumes.
func FoldBNAct(bn *BatchNorm, slope float32) *FoldedBN {
	requireEval(bn)
	c := len(bn.Gamma.T.Data)
	f := &FoldedBN{
		Scale: memplan.GetFloats(c),
		Shift: memplan.GetFloats(c),
		Slope: slope,
	}
	for ci := 0; ci < c; ci++ {
		scale, shift := bnAffine(bn, ci)
		f.Scale[ci] = float32(scale)
		f.Shift[ci] = float32(shift)
	}
	return f
}
