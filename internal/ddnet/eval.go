package ddnet

import (
	"context"
	"sync"

	"computecovid19/internal/ag"
	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/nn"
	"computecovid19/internal/parallel"
	"computecovid19/internal/tensor"
)

// The eval forward is kernels.Walk driven by the eval backend: the same
// layer order and span tree as the graph backend, but every activation
// comes from a memplan.Scope, no autograd tape is built, and every
// layer runs its compiled plan entry (nn.Trunk.Plan):
//
//   - every conv/deconv→BN→LeakyReLU triple (the stem, each dense
//     layer's 1×1 bottleneck with BN2, the transitions, and the
//     decoder's deconvolutions) is ONE ConvFused call — the BatchNorm
//     folds into the packed weights/bias and the activation runs in
//     the epilogue while the output tile is cache-hot;
//   - dense-layer BN1 (unfoldable: its input is the dense concat, and
//     the activation sits between it and the bottleneck) runs the
//     single-pass BNActInfer;
//   - transposed-convolution weights are flipped into convolution
//     layout once, at compile time.
//
// The plan is compiled on the first forward (or at Warm), from packed
// buffers drawn from memplan, so a warm forward performs zero
// steady-state heap allocations. Folding reassociates each layer's
// arithmetic by a few float32 ULPs, so the forward is held to the
// graph forward within fusedBudget (TestForwardOracle), not bit for
// bit.

// unpoolTabs caches the ×2 bilinear un-pooling tables of one input
// size, per decoder stage, so a forward resolves them with one atomic
// load instead of a lock and a map lookup per stage.
type unpoolTabs struct {
	h, w   int
	ty, tx []*kernels.BilinearTable
}

// unpoolTables returns the tables for an h×w input, rebuilding them
// only when the size differs from the previous forward's. Concurrent
// forwards at different sizes each keep the tables they loaded.
func (m *DDnet) unpoolTables(h, w int) *unpoolTabs {
	if t := m.tabs.Load(); t != nil && t.h == h && t.w == w {
		return t
	}
	t := &unpoolTabs{h: h, w: w}
	for s := m.Cfg.Stages; s > 0; s-- { // decoder stage 0 is the deepest
		t.ty = append(t.ty, kernels.NewBilinearTable(h>>s, 2*(h>>s)))
		t.tx = append(t.tx, kernels.NewBilinearTable(w>>s, 2*(w>>s)))
	}
	m.tabs.Store(t)
	return t
}

// Warm switches the network to eval mode and compiles the plan, the
// eager form of what the first eval forward does. Idempotent;
// concurrent with other Warm calls but not with training (like all
// inference entry points). Serving replicas warm before going
// concurrent (core.Pipeline.Warm).
func (m *DDnet) Warm() {
	m.SetTraining(false)
	m.Plan(m.Cfg.Slope)
}

// eval is the inference backend of kernels.Walk. Walk reaches its
// backend through an interface, so a per-forward value would escape to
// the heap; evals are recycled through evalPool instead.
type eval struct {
	sc   *memplan.Scope
	tabs *unpoolTabs
	dec  int // decoder stages done so far, selecting the un-pooling tables
	// workers is the forward's kernel worker count (see split); every
	// kernel the walk calls gets it.
	workers int
	plan    []nn.Folded
}

var evalPool = sync.Pool{New: func() any { return new(eval) }}

// Conv runs one conv(→BN→act) position as a single ConvFused call.
func (e *eval) Conv(l kernels.Layer, x *tensor.Tensor) *tensor.Tensor {
	return e.plan[l.Index].Infer(e.sc, x, e.workers)
}

// BNAct runs a standalone BatchNorm+LeakyReLU in one pass.
func (e *eval) BNAct(l kernels.Layer, x *tensor.Tensor) *tensor.Tensor {
	return e.plan[l.Index].Infer(e.sc, x, e.workers)
}

func (e *eval) Pool(x *tensor.Tensor) *tensor.Tensor {
	return ag.EvalMaxPool2D(e.sc, x, ag.Pool2DConfig{Kernel: 3, Stride: 2, Padding: 1}, e.workers)
}

func (e *eval) Unpool(x *tensor.Tensor) *tensor.Tensor {
	ty, tx := e.tabs.ty[e.dec], e.tabs.tx[e.dec]
	e.dec++
	return ag.EvalUpsampleBilinear2D(e.sc, x, ty, tx, e.workers)
}

func (e *eval) Concat(vs [kernels.MaxFanIn]*tensor.Tensor, n int) *tensor.Tensor {
	return ag.EvalConcat(e.sc, 1, vs[:n])
}

// Free releases x as soon as its last consumer has run, so peak arena
// footprint stays near the widest single stage.
func (e *eval) Free(x *tensor.Tensor) { e.sc.Free(x) }

// forwardEval runs the eval-mode forward on plain tensors from sc, its
// kernels on the worker count of split s. The input x is owned by the
// caller and is never freed here (the residual head reads it last); the
// returned tensor is scope-owned.
func (m *DDnet) forwardEval(ctx context.Context, sc *memplan.Scope, x *tensor.Tensor, s split) *tensor.Tensor {
	e := evalPool.Get().(*eval)
	*e = eval{sc: sc, tabs: m.unpoolTables(x.Shape[2], x.Shape[3]), workers: s.workers, plan: m.Plan(m.Cfg.Slope)}
	sp, ksp := startForward(ctx, true)
	if ksp != nil {
		ksp.SetAttr("split", s.axis())
		ksp.SetAttr("groups", s.groups)
		ksp.SetAttr("kernel_workers", s.workers)
	}
	h := kernels.Walk[*tensor.Tensor](m.Cfg.Arch(), e, x, ksp)
	if m.Cfg.Residual {
		h.AddInPlace(x) // ag.Add with the fresh operand on the left
	}
	ksp.End()
	sp.End()
	*e = eval{}
	evalPool.Put(e)
	return h
}

// split is a forward's parallel axis: groups runs of contiguous images
// side by side, each on kernels with workers workers.
type split struct{ groups, workers int }

// planSplit picks the parallel axis of a forward over n images on w
// workers: g = min(w, n) groups of contiguous images with w/g kernel
// workers each. One group — one image, or one worker — is the kernel
// split: a single batched forward whose every kernel shares its tiles
// or planes among w workers. More groups is the slice split: each group
// runs its images' single-image forwards one after another.
func planSplit(n, w int) split {
	g := max(1, min(w, n))
	return split{groups: g, workers: max(1, w/g)}
}

// axis names the split on the kernels/rung span.
func (s split) axis() string {
	if s.groups == 1 {
		return "kernels"
	}
	return "slices"
}

// EnhanceBatchInto enhances a batch of same-size (H, W) images in
// [0, 1] into caller-provided output tensors, drawing all scratch from
// mem. A warm arena makes this the zero-allocation serving hot path:
// inputs and outputs may be long-lived caller buffers (they are never
// pooled), and everything in between is recycled through mem.
//
// Every enhancement path reaches this function, and it picks the
// forward's parallel axis here, once, from the image count and
// parallel.DefaultWorkers (planSplit). The kernel split runs the batch
// as one forward. The slice split hands its groups to the worker pool
// in one dispatch, and each group enhances its images one at a time on
// its own scope of mem, so peak activation memory is one single-image
// forward per group. At serving shapes the slice split is the faster
// axis: a GEMM tile holds up to 2^18/r columns, so the 7×7 stem, every
// 1×1 layer and every layer at 32×32 or below is one tile, which a
// kernel split runs on one core anyway. Per-image forwards are
// independent and every kernel is bit-identical across worker counts,
// so the choice never changes an output bit.
func (m *DDnet) EnhanceBatchInto(ctx context.Context, mem *memplan.Arena, imgs, outs []*tensor.Tensor) {
	if len(imgs) == 0 {
		return
	}
	if len(outs) != len(imgs) {
		panic("ddnet: EnhanceBatchInto wants one output per image")
	}
	h, w := imgs[0].Shape[0], imgs[0].Shape[1]
	for i, img := range imgs {
		if img.Rank() != 2 {
			panic("ddnet: EnhanceBatch wants rank-2 (H, W) images")
		}
		if img.Shape[0] != h || img.Shape[1] != w {
			panic("ddnet: EnhanceBatch images must share one size")
		}
		if outs[i].Rank() != 2 || outs[i].Shape[0] != h || outs[i].Shape[1] != w {
			panic("ddnet: EnhanceBatchInto output must match the image shape")
		}
	}
	// Checked here, on the caller's goroutine: past this point a slice
	// split runs forwards on pool workers, where a panic cannot be
	// recovered and would end the process.
	if q := 1 << m.Cfg.Stages; h%q != 0 || w%q != 0 {
		panic("ddnet: EnhanceBatchInto image height and width must be divisible by 2^Stages")
	}
	m.SetTraining(false)
	s := planSplit(len(imgs), parallel.DefaultWorkers())
	if s.groups == 1 {
		sc := mem.NewScope()
		m.forwardInto(ctx, sc, imgs, outs, s)
		sc.Close()
		return
	}
	parallel.ForPooled(&groupJobs, s.groups, s.groups,
		groupJob{m: m, ctx: ctx, mem: mem, imgs: imgs, outs: outs, split: s})
}

// forwardInto runs one forward of imgs on sc and writes the clamped
// results into outs, handing its staged input and its result back to
// sc.
func (m *DDnet) forwardInto(ctx context.Context, sc *memplan.Scope, imgs, outs []*tensor.Tensor, s split) {
	h, w := imgs[0].Shape[0], imgs[0].Shape[1]
	x := sc.Get(len(imgs), 1, h, w)
	for i, img := range imgs {
		copy(x.Data[i*h*w:(i+1)*h*w], img.Data)
	}
	y := m.forwardEval(ctx, sc, x, s)
	for i := range imgs {
		copy(outs[i].Data, y.Data[i*h*w:(i+1)*h*w])
		outs[i].Clamp(0, 1)
	}
	sc.Free(y)
	sc.Free(x)
}

// groupJob is a slice-split forward, handed to the worker pool through
// parallel.ForPooled rather than as a closure so the dispatch allocates
// nothing.
type groupJob struct {
	m          *DDnet
	ctx        context.Context
	mem        *memplan.Arena
	imgs, outs []*tensor.Tensor
	split      split
}

var groupJobs sync.Pool // of *groupJob

// Run runs groups [lo, hi) of the slice split: group g enhances images
// [g·n/groups, (g+1)·n/groups) one after another on its own scope of
// the caller's arena (a Scope is single-goroutine; the arena is not).
func (j *groupJob) Run(lo, hi int) {
	n, groups := len(j.imgs), j.split.groups
	for g := lo; g < hi; g++ {
		sc := j.mem.NewScope()
		for i := g * n / groups; i < (g+1)*n/groups; i++ {
			j.m.forwardInto(j.ctx, sc, j.imgs[i:i+1], j.outs[i:i+1], j.split)
		}
		sc.Close()
	}
}
