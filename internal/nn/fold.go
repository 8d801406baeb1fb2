package nn

import (
	"math"
	"sync"
	"sync/atomic"

	"computecovid19/internal/ag"
	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// Plan compilation: inference-mode BatchNorm is an affine map per
// channel — y = scale·x + shift with scale = γ/√(σ²+ε) and
// shift = β − μ·scale — so a conv→BN pair collapses into a single
// convolution with rescaled weights and a bias, and a BN that cannot
// fold into a neighbouring convolution still collapses its two passes
// (normalize, activate) into one precomputed scale/shift sweep. A
// Trunk folds its units once, on the first eval forward after
// construction, a weight load or training (or eagerly, at Warm), 2D
// and 3D layers through the one fold; the fused kernels consume the
// packed buffers every forward after that. Folding happens in float64
// and narrows once; agreement with the graph forward is tested against
// each network's budget.

// Unit is the weights of one plan position: a convolution — nil for a
// standalone BatchNorm — and the BatchNorm that follows it, if any.
type Unit struct {
	Conv Conv
	BN   *BatchNorm
}

// Trunk is a network's per-layer weights in walk order (Units[i]
// belongs to the walk's layer i) plus the compiled plan folded from
// them. The unit order is also the Params/StateTensors — and so the
// checkpoint — order. ddnet.DDnet and classify.Classifier embed it.
type Trunk struct {
	Units []Unit

	// mu serializes compilation only; forwards read the plan through
	// the atomic load.
	mu   sync.Mutex
	plan atomic.Pointer[[]Folded]
}

// Params returns every unit's convolution then BatchNorm parameters,
// in unit order.
func (t *Trunk) Params() []*ag.Value {
	var ps []*ag.Value
	for _, u := range t.Units {
		if u.Conv != nil {
			ps = append(ps, u.Conv.Params()...)
		}
		if u.BN != nil {
			ps = append(ps, u.BN.Params()...)
		}
	}
	return ps
}

// StateTensors exposes the BatchNorm running statistics for
// serialization, in unit order.
func (t *Trunk) StateTensors() []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, u := range t.Units {
		if u.BN != nil {
			ts = append(ts, u.BN.stateTensors()...)
		}
	}
	return ts
}

// SetTraining toggles BatchNorm behaviour trunk-wide. Entering training
// mode drops the plan: its folded weights bake in statistics and
// weights that are about to change. Leaving it compiles nothing, so the
// SetTraining(false) on every inference entry point stays a pure read.
func (t *Trunk) SetTraining(train bool) {
	if train {
		t.dropPlan()
	}
	for _, u := range t.Units {
		if u.BN != nil {
			u.BN.SetTraining(train)
		}
	}
}

// dropPlan forgets the compiled plan; the next Plan call folds the
// current weights. Its buffers are left to the garbage collector rather
// than recycled, so a forward still holding the old plan never reads a
// reused buffer.
func (t *Trunk) dropPlan() { t.plan.Store(nil) }

// Plan returns the compiled plan, folding it from the current weights
// on first use: every unit with a convolution becomes one fused
// convolution (its BatchNorm and a LeakyReLU of the given slope, 0
// being ReLU, in the epilogue), and a standalone BatchNorm one
// BatchNorm+LeakyReLU pass. The trunk must be in eval mode. Safe for
// concurrent forwards: one compiles under the mutex, the rest load the
// result.
func (t *Trunk) Plan(slope float32) []Folded {
	if pl := t.plan.Load(); pl != nil {
		return *pl
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if pl := t.plan.Load(); pl != nil {
		return *pl
	}
	pl := make([]Folded, len(t.Units))
	for i, u := range t.Units {
		if u.Conv != nil {
			pl[i].conv = foldConvBN(u.Conv, u.BN, slope)
		} else {
			pl[i].bn = foldBNAct(u.BN, slope)
		}
	}
	t.plan.Store(&pl)
	return pl
}

// Folded is one unit's compiled form.
type Folded struct {
	conv *foldedConv
	bn   *foldedBN
}

// Infer runs the unit on one image, from x into out, in the layouts
// Acts draws them in. x is left intact: it may have other readers (a
// dense concat, in both networks).
func (f Folded) Infer(x, out Act, workers int) {
	if c := f.conv; c != nil {
		// One ConvFused call, its output halo-padded for out's reader.
		ks := kernels.ConvShape{InC: c.InC, D: x.D, H: x.H, W: x.W, OutC: c.OutC, K: c.K, Halo: out.K / 2}
		kernels.ConvFused(x.Data, c.W, out.Data, ks, workers, kernels.Epilogue{Bias: c.Bias, Act: c.Act, Slope: c.Slope})
	} else {
		kernels.BNActInfer(x.Data, out.Data, x.C, len(x.Data)/x.C, f.bn.Scale, f.bn.Shift, f.bn.Slope, workers)
	}
}

// foldedConv is one plan-compiled convolution layer: packed weights in
// the (OutC, InC, K, K) — for a 3D layer (OutC, InC, K, K, K) — layout
// the GEMM path consumes, BN-rescaled when a fold happened and
// spatially pre-flipped for transposed convolutions, plus the fused
// epilogue (bias and activation). Packed buffers are drawn from memplan
// at compile time, so compiling warms the pools the forward draws from.
type foldedConv struct {
	W            []float32 // (OutC, InC, K, K[, K]), pre-flipped for deconvs
	Bias         []float32 // folded per-output-channel bias; nil when none
	Act          bool      // fused LeakyReLU
	Slope        float32
	InC, OutC, K int
}

// foldedBN is a plan-compiled BatchNorm(+LeakyReLU) for positions where
// no neighbouring convolution can absorb it: the per-channel affine is
// precomputed so the forward runs kernels.BNActInfer's single pass.
type foldedBN struct {
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

// Conv is a convolution layer a plan can fold: a Conv2D (either
// direction) or a Conv3D.
type Conv interface {
	Module
	// weights returns the weight, the bias (nil when none) and whether
	// the weight has the transposed (InC, OutC, ...) layout.
	weights() (w, b *ag.Value, transposed bool)
}

func (l *Conv2D) weights() (w, b *ag.Value, transposed bool) { return l.W, l.B, l.Transposed }
func (l *Conv3D) weights() (w, b *ag.Value, transposed bool) { return l.W, l.B, false }

// foldConvBN compiles conv(→bn→LeakyReLU) into one foldedConv, for 2D
// and 3D layers alike. bn may be nil (no fold and no activation: the
// epilogue carries just the layer bias, if any).
// Transposed-convolution weights are spatially flipped into the
// convolution layout once here. When nothing needs rewriting the
// packed weights alias the layer's own, so such layers cost no copy.
func foldConvBN(conv Conv, bn *BatchNorm, slope float32) *foldedConv {
	requireEval(bn)
	w, b, transposed := conv.weights()
	outC, inC, k := w.T.Shape[0], w.T.Shape[1], w.T.Shape[2]
	if transposed {
		outC, inC = inC, outC
	}
	f := &foldedConv{Act: bn != nil, Slope: slope, InC: inC, OutC: outC, K: k, W: w.T.Data}
	if transposed {
		f.W = memplan.GetFloats(len(w.T.Data))
		kernels.FlipDeconvWeights(w.T.Data, f.W, kernels.ConvShape{InC: inC, OutC: outC, K: k})
	} else if bn != nil {
		f.W = memplan.GetFloats(len(w.T.Data))
		copy(f.W, w.T.Data)
	}
	if bn == nil && b == nil {
		return f
	}
	f.Bias = memplan.GetFloats(outC)
	row := len(w.T.Data) / outC
	for co := 0; co < outC; co++ {
		var scale, shift float64 = 1, 0
		if bn != nil {
			scale, shift = bnAffine(bn, co)
			for i := co * row; i < (co+1)*row; i++ {
				f.W[i] = float32(float64(f.W[i]) * scale)
			}
		}
		if b != nil {
			shift += float64(b.T.Data[co]) * scale
		}
		f.Bias[co] = float32(shift)
	}
	return f
}

// foldBNAct compiles a standalone bn→LeakyReLU into the single-pass
// scale/shift form kernels.BNActInfer consumes.
func foldBNAct(bn *BatchNorm, slope float32) *foldedBN {
	requireEval(bn)
	c := len(bn.Gamma.T.Data)
	f := &foldedBN{
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
