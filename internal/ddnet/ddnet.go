// Package ddnet implements the paper's core contribution: DDnet, the
// DenseNet + Deconvolution image-enhancement network of §2.2 (originally
// Zhang et al., IEEE TMI 2018 — the paper's reference [45]).
//
// The architecture follows Table 2 of the paper: a convolution network
// of four dense blocks with transition 1×1 convolutions and 3×3/s2 max
// pools (37 convolution layers in the paper configuration), and a
// deconvolution network of four bilinear un-pooling stages each followed
// by a 5×5 and a 1×1 transposed convolution (8 deconvolution layers).
// Global shortcut connections concatenate each dense block's output onto
// the matching un-pooling output (§2.2.3).
//
// The network is size- and width-generic: PaperConfig reproduces
// Table 2 exactly, while smaller configs keep tests and demos fast on a
// laptop-class CPU. The layer counts scale as
//
//	convs   = 1 + stages·(2·denseLayers + 1)
//	deconvs = 2·stages
//
// which yields 37 and 8 for the paper configuration.
package ddnet

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"

	"computecovid19/internal/ag"
	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/nn"
	"computecovid19/internal/obs"
	"computecovid19/internal/tensor"
)

// Config selects the DDnet architecture.
type Config struct {
	// BaseChannels is the trunk width F (paper: 16).
	BaseChannels int
	// Growth is the dense-block growth rate (paper: 16).
	Growth int
	// DenseLayers is the number of densely connected layers per block
	// (paper: 4).
	DenseLayers int
	// Kernel is the spatial kernel of dense-block growth convolutions
	// and 5×5 deconvolutions (paper: 5).
	Kernel int
	// Stages is the number of pooling levels / dense blocks (paper: 4).
	// Input height and width must be divisible by 2^Stages.
	Stages int
	// Residual makes the network predict a correction added to its
	// input instead of the image itself. Denoising residuals are
	// near-zero-mean, which converges far faster at the small training
	// scales this reproduction runs at; disable for the paper-literal
	// direct mapping.
	Residual bool
	// InitStd is the Gaussian weight-init standard deviation (§3.1.1:
	// 0.01).
	InitStd float64
	// Slope is the leaky-ReLU negative slope.
	Slope float32
}

// Arch converts the configuration to the dependency-free shape mirror
// kernels.Walk — the one place the topology is spelled — takes.
func (c Config) Arch() kernels.Arch {
	return kernels.Arch{
		BaseChannels: c.BaseChannels,
		Growth:       c.Growth,
		DenseLayers:  c.DenseLayers,
		Kernel:       c.Kernel,
		Stages:       c.Stages,
	}
}

// PaperConfig returns the Table 2 architecture (16 base channels,
// growth 16, four dense blocks of four layers, 5×5 kernels).
func PaperConfig() Config {
	return Config{
		BaseChannels: 16, Growth: 16, DenseLayers: 4, Kernel: 5,
		Stages: 4, Residual: true, InitStd: 0.01, Slope: 0.01,
	}
}

// TinyConfig returns a reduced DDnet for tests and demos: two stages,
// two dense layers, 3×3 kernels, 8 channels. The topology (dense blocks,
// transitions, global shortcuts) is identical to the paper network.
func TinyConfig() Config {
	return Config{
		BaseChannels: 8, Growth: 8, DenseLayers: 2, Kernel: 3,
		Stages: 2, Residual: true, InitStd: 0.05, Slope: 0.01,
	}
}

// unit is the weights of one kernels.Layer: a (transposed) convolution
// — nil for a standalone BatchNorm — plus the BatchNorm that follows it
// when the layer has one.
type unit struct {
	conv *nn.Conv2D
	bn   *nn.BatchNorm
}

// DDnet is the enhancement network.
type DDnet struct {
	Cfg Config

	// units holds every layer's weights in walk order
	// (units[l.Index] belongs to kernels.Layer l), which is also the
	// Params/StateTensors — and so the checkpoint — order.
	units []unit

	// Un-pooling tables of the most recent eval input size (eval.go).
	tabs atomic.Pointer[unpoolTabs]

	// Compiled fused execution plan (plan.go), one entry per unit. Nil
	// until Warm; dropped on SetTraining(true). planMu serializes
	// compilation only — readers go through the atomic load.
	planMu sync.Mutex
	plan   atomic.Pointer[[]folded]
}

// New constructs a DDnet with Gaussian-initialized weights drawn from
// rng, one unit per layer of the walk.
func New(rng *rand.Rand, cfg Config) *DDnet {
	m := &DDnet{Cfg: cfg}
	for _, l := range kernels.Layers(cfg.Arch()) {
		var u unit
		if l.Deconv {
			u.conv = nn.NewConvTranspose2D(rng, l.InC, l.OutC, l.K, false, cfg.InitStd)
		} else if l.K > 0 {
			u.conv = nn.NewConv2D(rng, l.InC, l.OutC, l.K, false, cfg.InitStd)
		}
		if l.BNAct {
			u.bn = nn.NewBatchNorm(l.OutC)
		}
		m.units = append(m.units, u)
	}
	return m
}

// NumConvLayers reports the convolution-layer count (37 for the paper
// configuration).
func (m *DDnet) NumConvLayers() int {
	return 1 + m.Cfg.Stages*(2*m.Cfg.DenseLayers+1)
}

// NumDeconvLayers reports the deconvolution-layer count (8 for the paper
// configuration).
func (m *DDnet) NumDeconvLayers() int { return 2 * m.Cfg.Stages }

// startForward opens the "ddnet/forward → kernels/rung" span pair every
// forward runs under; the walk hangs its per-stage spans beneath the
// rung span, which names the kernel path that produced the timing:
// "fused" on the compiled plan, "gemm" on the layer-wise forwards.
func startForward(ctx context.Context, fused bool) (sp, ksp *obs.Span) {
	_, sp = obs.StartCtx(ctx, "ddnet/forward")
	ksp = sp.Child("kernels/rung")
	if ksp != nil {
		if fused {
			ksp.SetAttr("rung", "fused")
			ksp.SetAttr("plan", "fused")
		} else {
			ksp.SetAttr("rung", "gemm")
		}
	}
	return sp, ksp
}

// graph is the autograd backend of kernels.Walk: training, and the
// bit-exact reference the eval backend is tested against.
type graph struct{ m *DDnet }

func (g *graph) act(v *ag.Value) *ag.Value { return ag.LeakyReLU(v, g.m.Cfg.Slope) }

func (g *graph) Conv(l kernels.Layer, x *ag.Value) *ag.Value {
	u := &g.m.units[l.Index]
	x = u.conv.Forward(x)
	if l.BNAct {
		x = g.act(u.bn.Forward(x))
	}
	return x
}

func (g *graph) BNAct(l kernels.Layer, x *ag.Value) *ag.Value {
	return g.act(g.m.units[l.Index].bn.Forward(x))
}

func (g *graph) Pool(x *ag.Value) *ag.Value {
	return ag.MaxPool2D(x, ag.Pool2DConfig{Kernel: 3, Stride: 2, Padding: 1})
}

func (g *graph) Unpool(x *ag.Value) *ag.Value { return ag.UpsampleBilinear2D(x, 2) }

func (g *graph) Concat(vs [kernels.MaxFanIn]*ag.Value, n int) *ag.Value {
	return ag.Concat(1, vs[:n]...)
}

func (g *graph) Free(*ag.Value) {} // the tape keeps every activation for backward

// Forward enhances a batch of (N, 1, H, W) images in [0, 1]. H and W
// must be divisible by 2^Stages.
func (m *DDnet) Forward(x *ag.Value) *ag.Value {
	return m.ForwardCtx(context.Background(), x)
}

// ForwardCtx is Forward continuing the context's trace: the forward
// span nests under the caller's active span (the serving micro-batch,
// a training step), so a request trace reaches layer depth.
func (m *DDnet) ForwardCtx(ctx context.Context, x *ag.Value) *ag.Value {
	sp, ksp := startForward(ctx, false)
	defer sp.End()
	defer ksp.End()
	h := kernels.Walk[*ag.Value](m.Cfg.Arch(), &graph{m}, x, ksp)
	if m.Cfg.Residual {
		h = ag.Add(h, x)
	}
	return h
}

// Params returns every trainable parameter, in walk order.
func (m *DDnet) Params() []*ag.Value {
	var ps []*ag.Value
	for _, u := range m.units {
		if u.conv != nil {
			ps = append(ps, u.conv.Params()...)
		}
		if u.bn != nil {
			ps = append(ps, u.bn.Params()...)
		}
	}
	return ps
}

// SetTraining toggles batch-norm behaviour network-wide. Entering
// training mode drops any compiled fused plan: its folded weights bake
// in BN statistics that are about to change. (Entering eval mode does
// NOT compile one — that is Warm's job — so the per-call
// SetTraining(false) on the inference entry points stays cheap.)
func (m *DDnet) SetTraining(train bool) {
	if train {
		m.plan.Store(nil)
	}
	for _, u := range m.units {
		if u.bn != nil {
			u.bn.SetTraining(train)
		}
	}
}

// StateTensors exposes batch-norm running statistics for serialization.
func (m *DDnet) StateTensors() []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, u := range m.units {
		if u.bn != nil {
			ts = append(ts, u.bn.RunningMean, u.bn.RunningVar)
		}
	}
	return ts
}

// Enhance runs the network in eval mode on a single (H, W) image in
// [0, 1] and returns the enhanced image, clamped back to [0, 1].
func (m *DDnet) Enhance(img *tensor.Tensor) *tensor.Tensor {
	return m.EnhanceBatch([]*tensor.Tensor{img})[0]
}

// EnhanceBatch runs the network in eval mode on a batch of same-size
// (H, W) images in [0, 1] with a single (N, 1, H, W) forward pass and
// returns the enhanced images, clamped back to [0, 1]. Every op in the
// network treats batch samples independently with identical accumulation
// order, so the outputs are bit-identical to N single-image Enhance
// calls — the property that lets internal/serve micro-batch slices from
// different scans without changing results (pinned by a regression
// test). On a warm network (eval mode already set) concurrent callers
// must still serialize: one forward pass at a time per weight set.
func (m *DDnet) EnhanceBatch(imgs []*tensor.Tensor) []*tensor.Tensor {
	return m.EnhanceBatchCtx(context.Background(), imgs)
}

// EnhanceBatchCtx is EnhanceBatch continuing the context's trace into
// the forward pass. It runs the pooled tape-free eval forward against
// the process-wide arena; the returned tensors are freshly allocated
// and owned by the caller (they are never pooled back).
func (m *DDnet) EnhanceBatchCtx(ctx context.Context, imgs []*tensor.Tensor) []*tensor.Tensor {
	if len(imgs) == 0 {
		return nil
	}
	h, w := imgs[0].Shape[0], imgs[0].Shape[1]
	res := make([]*tensor.Tensor, len(imgs))
	for i := range imgs {
		res[i] = tensor.New(h, w)
	}
	m.EnhanceBatchInto(ctx, memplan.Global(), imgs, res)
	return res
}

// Loss is the paper's composite objective (Equation 1):
// MSE + 0.1·(1 − MS-SSIM).
func Loss(pred, target *ag.Value) *ag.Value {
	return ag.CompositeEnhancementLoss(pred, target, ag.DefaultSSIM())
}
