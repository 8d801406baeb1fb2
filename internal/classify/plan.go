package classify

import (
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
)

// The compiled plan is walk's fourth backend, built once at Warm time
// as DDnet's is (ddnet/plan.go), from the same folds:
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
// Pool, concat and free are the pooled backend's. Slope 0 maps a
// negative to −0 where ag.ReLU gives +0, and folding reassociates each
// layer's arithmetic by a few float32 ULPs, so the plan is held to the
// pooled backend within a probability budget fixed in advance
// (TestPlanMatchesPooled), not bit for bit. SetTraining(true) drops the
// plan, as DDnet's does.

// folded is one unit's compiled form: conv for convolution-bearing
// layers, bn for standalone BatchNorms.
type folded struct {
	conv *nn.FoldedConv
	bn   *nn.FoldedBN
}

// Warm switches the classifier to eval mode and compiles its plan.
// Idempotent; concurrent with other Warm calls but not with training
// (like all inference entry points). core.Pipeline.Warm calls it before
// serving goes concurrent, so every hot-path PredictPooled runs the
// plan.
func (c *Classifier) Warm() {
	c.SetTraining(false)
	c.planMu.Lock()
	defer c.planMu.Unlock()
	if c.plan.Load() == nil {
		pl := make([]folded, len(c.units))
		for i, u := range c.units {
			if u.conv != nil {
				pl[i].conv = nn.FoldConvBN(u.conv, u.bn, u.bn != nil, 0)
			} else {
				pl[i].bn = nn.FoldBNAct(u.bn, 0)
			}
		}
		c.plan.Store(&pl)
	}
}

// planned is the plan backend: the pooled backend with apply replaced
// by the layer's compiled form. A pooled forward uses its embedded
// pooled alone, so one recycled value serves both.
type planned struct {
	pooled
	plan []folded
}

func (p *planned) apply(l layer, x *tensor.Tensor) *tensor.Tensor {
	f := p.plan[l.index]
	if f.conv != nil {
		return f.conv.Infer(p.sc, x, 0)
	}
	return f.bn.Infer(p.sc, x, 0)
}
