package classify

import (
	"sync"

	"computecovid19/internal/ag"
	"computecovid19/internal/memplan"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// The eval forward is walk driven by the eval backend on the compiled
// plan (nn.Trunk.Plan), built from the same folds as DDnet's:
//
//   - every conv→BN→ReLU layer (the stem, each dense layer's 1³
//     bottleneck, the transitions) is one ConvFused call: the BatchNorm
//     folds into the packed Conv3D weights and a bias, and the ReLU is
//     the epilogue's LeakyReLU with slope 0;
//   - a growth convolution (no BN after it) runs its weights as they
//     are, with the zero epilogue;
//   - a standalone BN+ReLU (k == 0: the dense layers' pre-activation and
//     the final one, whose inputs are concats other layers still read)
//     is one BNActInfer pass on the default worker count.
//
// Slope 0 maps a negative to −0 where ag.ReLU gives +0, and folding
// reassociates each layer's arithmetic by a few float32 ULPs, so the
// forward is held to Predict's graph forward within a probability
// budget fixed in advance (TestPlanMatchesPooled), not bit for bit.

// eval is the tape-free inference backend of walk: every activation
// comes from a memplan.Scope and goes back the moment its last reader
// has run. walk reaches its backend through an interface, so a
// per-forward value would escape to the heap; backends are recycled
// through evalPool instead.
type eval struct {
	plan []nn.Folded
	sc   *memplan.Scope
}

var evalPool = sync.Pool{New: func() any { return new(eval) }}

func (e *eval) apply(l layer, x *tensor.Tensor) *tensor.Tensor {
	return e.plan[l.index].Infer(e.sc, x, 0)
}

func (e *eval) pool(x *tensor.Tensor) *tensor.Tensor {
	return ag.EvalMaxPool3D(e.sc, x, ag.Pool2DConfig{Kernel: 2, Stride: 2})
}

func (e *eval) concat(vs [maxFanIn]*tensor.Tensor, n int) *tensor.Tensor {
	return ag.EvalConcat(e.sc, 1, vs[:n])
}

func (e *eval) free(x *tensor.Tensor) { e.sc.Free(x) }

// Warm switches the classifier to eval mode and compiles its plan, the
// eager form of what the first PredictPooled does. Idempotent;
// concurrent with other Warm calls but not with training (like all
// inference entry points). core.Pipeline.Warm calls it before serving
// goes concurrent.
func (c *Classifier) Warm() {
	c.SetTraining(false)
	c.Plan(0)
}

// PredictPooled is Predict without a tape, on the compiled plan: every
// activation comes from mem, so a warm arena makes classification a
// zero-steady-state-allocation operation. The volume's storage is
// aliased read-only (never pooled).
func (c *Classifier) PredictPooled(mem *memplan.Arena, v *volume.Volume) float64 {
	c.SetTraining(false)
	sc := mem.NewScope()
	e := evalPool.Get().(*eval)
	*e = eval{plan: c.Plan(0), sc: sc}
	h := walk[*tensor.Tensor](c.Cfg, e, sc.View(v.Data, 1, 1, v.D, v.H, v.W))
	*e = eval{}
	evalPool.Put(e)
	feats := ag.EvalGlobalAvgPool3D(sc, h)
	sc.Free(h)
	logit := c.fc.Infer(sc, feats)
	prob := float64(ag.EvalSigmoid(logit.Data[0]))
	sc.Close()
	return prob
}
