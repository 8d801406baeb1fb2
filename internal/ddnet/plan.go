package ddnet

import "computecovid19/internal/nn"

// The fused execution plan is compiled once at Warm time and replaces
// the layer-by-layer eval forward with BN-folded, epilogue-fused
// kernel calls:
//
//   - every conv/deconv→BN→LeakyReLU triple (the stem, each dense
//     layer's 1×1 bottleneck with BN2, the transitions, and the
//     decoder's deconvolutions) collapses into ONE ConvFused call — the
//     BatchNorm folds into the packed weights/bias and the activation
//     runs in the epilogue while the output tile is cache-hot,
//     eliminating two full feature-map passes per layer;
//   - dense-layer BN1 (unfoldable: its input is the dense concat, and
//     the activation sits between it and the bottleneck) runs the
//     single-pass BNActInfer instead of separate BN and act passes;
//   - transposed-convolution weights are flipped into convolution
//     layout once here instead of on every call (DeconvGEMM's per-call
//     flip remains for the layer-wise path).
//
// The packed buffers come from memplan, so compiling a plan warms the
// same pool the forward draws from and the warm path stays at 0
// allocs/op. SetTraining(true) drops the plan (weights are about to
// change); the buffers are left to the garbage collector rather than
// recycled so a forward racing the invalidation can never see a reused
// buffer.

// folded is one unit's compiled form: conv for convolution-bearing
// layers, bn for standalone BatchNorms.
type folded struct {
	conv *nn.FoldedConv
	bn   *nn.FoldedBN
}

// Warm switches the network to eval mode and compiles the fused
// execution plan. Idempotent; concurrent with other Warm calls but not
// with training (like all inference entry points). Serving replicas
// warm before going concurrent (core.Pipeline.Warm), so every hot-path
// forward runs the compiled plan.
func (m *DDnet) Warm() {
	m.SetTraining(false)
	m.planMu.Lock()
	defer m.planMu.Unlock()
	if m.plan.Load() == nil {
		pl := m.compilePlan()
		m.plan.Store(&pl)
	}
}

// compilePlan folds every unit: the BatchNorm (when the layer has one)
// and its activation go into the convolution's epilogue; a layer
// without one still gets its weights packed (and pre-flipped, for a
// transposed convolution).
func (m *DDnet) compilePlan() []folded {
	pl := make([]folded, len(m.units))
	for i, u := range m.units {
		if u.conv != nil {
			pl[i].conv = nn.FoldConvBN(u.conv, u.bn, u.bn != nil, m.Cfg.Slope)
		} else {
			pl[i].bn = nn.FoldBNAct(u.bn, m.Cfg.Slope)
		}
	}
	return pl
}
