package classify

import (
	"sync"

	"computecovid19/internal/ag"
	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/nn"
	"computecovid19/internal/volume"
)

// The eval forward is walk driven by the eval backend on the compiled
// plan (nn.Trunk.Plan), built from the same folds as DDnet's, its
// activations drawn through nn.Acts as DDnet's are:
//
//   - every conv→BN→ReLU layer (the stem, each dense layer's 1³
//     bottleneck, the transitions) is one ConvFused call: the BatchNorm
//     folds into the packed Conv3D weights and a bias, and the ReLU is
//     the epilogue's LeakyReLU with slope 0;
//   - a growth convolution (no BN after it) runs its weights as they
//     are, with the zero epilogue;
//   - a standalone BN+ReLU (k == 0: the dense layers' pre-activation and
//     the final one) is one BNActInfer pass on the default worker count.
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
	nn.Acts
	plan []nn.Folded
	k    int // the growth convolutions' kernel
}

var evalPool = sync.Pool{New: func() any { return new(eval) }}

func (e *eval) apply(l layer, x nn.Act) nn.Act {
	var out nn.Act
	switch {
	case l.k > 0 && !l.bnAct:
		out = e.Slot(l.outC, nil)
	case l.k > 0 && l.dense:
		out = e.Get(l.outC, x, e.k, nil)
	default:
		out = e.Get(l.outC, x, 1, nil)
	}
	e.plan[l.index].Infer(x, out, 0)
	return out
}

func (e *eval) pool(x nn.Act) nn.Act {
	s := kernels.PoolShape{C: x.C, D: x.D, H: x.H, W: x.W, K: 2, S: 2}
	od, oh, ow := s.Out()
	out := e.Open(x.C, nn.Act{D: od, H: oh, W: ow})
	kernels.MaxPool(x.Data, out.Data, nil, s, 0)
	return out
}

func (e *eval) concat(vs [maxFanIn]nn.Act, n int) nn.Act { return e.Concat(vs[:n]) }

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
// zero-steady-state-allocation operation. The volume is staged once,
// halo-padded for the stem, and never written.
func (c *Classifier) PredictPooled(mem *memplan.Arena, v *volume.Volume) float64 {
	c.SetTraining(false)
	sc := mem.NewScope()
	e := evalPool.Get().(*eval)
	*e = eval{Acts: nn.Acts{Sc: sc}, plan: c.Plan(0), k: c.Cfg.Kernel}
	h := walk[nn.Act](c.Cfg, e, e.Get(1, nn.Act{D: v.D, H: v.H, W: v.W}, 3, v.Data)) // 3: the stem kernel
	*e = eval{}
	evalPool.Put(e)
	feats := ag.EvalGlobalAvgPool3D(sc, h.T)
	logit := c.fc.Infer(sc, feats)
	prob := float64(ag.EvalSigmoid(logit.Data[0]))
	sc.Close()
	return prob
}
