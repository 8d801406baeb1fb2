package ddnet

import (
	"context"
	"sync"

	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/nn"
	"computecovid19/internal/parallel"
	"computecovid19/internal/tensor"
)

// The eval forward is kernels.Walk driven by the eval backend: the same
// layer order and span tree as the graph backend, but every activation
// is drawn through nn.Acts, written once in the layout its reader
// takes, no autograd tape is built, and every layer runs its compiled
// plan entry (nn.Trunk.Plan):
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
// the heap; evals are recycled through evalPool instead. Its Reserve
// and Free are nn.Acts'.
type eval struct {
	nn.Acts
	tabs *unpoolTabs
	dec  int // decoder stages done so far, selecting the un-pooling tables
	k    int // the growth convolutions' kernel
	// workers is the forward's kernel worker count (see split); every
	// kernel the walk calls gets it.
	workers int
	plan    []nn.Folded
}

var evalPool = sync.Pool{New: func() any { return new(eval) }}

// Conv runs one conv(→BN→act) position as a single ConvFused call: a
// growth convolution into its channels of the dense block, a bottleneck
// into the growth convolution's halo-padded input.
func (e *eval) Conv(l kernels.Layer, x nn.Act) nn.Act {
	var out nn.Act
	switch {
	case l.Dense && !l.BNAct:
		out = e.Slot(l.OutC, nil)
	case l.Dense:
		out = e.Get(l.OutC, x, e.k, nil)
	default:
		out = e.Get(l.OutC, x, 1, nil)
	}
	e.plan[l.Index].Infer(x, out, e.workers)
	return out
}

// BNAct runs a standalone BatchNorm+LeakyReLU in one pass.
func (e *eval) BNAct(l kernels.Layer, x nn.Act) nn.Act {
	out := e.Get(x.C, x, 1, nil)
	e.plan[l.Index].Infer(x, out, e.workers)
	return out
}

// Pool writes the block input into the dense block's first channels.
func (e *eval) Pool(x nn.Act) nn.Act {
	s := kernels.PoolShape{C: x.C, H: x.H, W: x.W, K: 3, S: 2, P: 1}
	_, oh, ow := s.Out()
	out := e.Open(x.C, nn.Act{H: oh, W: ow})
	kernels.MaxPool(x.Data, out.Data, nil, s, e.workers)
	return out
}

// Unpool writes into the first channels of the deconvolution's input.
func (e *eval) Unpool(x nn.Act) nn.Act {
	ty, tx := e.tabs.ty[e.dec], e.tabs.tx[e.dec]
	e.dec++
	out := e.Open(x.C, nn.Act{H: len(ty.Lo), W: len(tx.Lo)})
	kernels.Upsample(x.Data, out.Data, x.C, x.H, x.W, out.K/2, ty, tx, e.workers)
	return out
}

func (e *eval) Concat(vs [kernels.MaxFanIn]nn.Act, n int) nn.Act { return e.Acts.Concat(vs[:n]) }

// forwardInto runs the eval-mode forward of the (h, w) image img on sc,
// its kernels on the worker count of split s, and writes the clamped
// result, with the residual head's img added back, into out. The
// staging copy writes img halo-padded for the stem.
func (m *DDnet) forwardInto(ctx context.Context, sc *memplan.Scope, img, out *tensor.Tensor, s split) {
	h, w := img.Shape[0], img.Shape[1]
	e := evalPool.Get().(*eval)
	*e = eval{Acts: nn.Acts{Sc: sc}, tabs: m.unpoolTables(h, w), k: m.Cfg.Kernel, workers: s.workers, plan: m.Plan(m.Cfg.Slope)}
	sp, ksp := startForward(ctx, true)
	if ksp != nil {
		ksp.SetAttr("split", s.axis())
		ksp.SetAttr("groups", s.groups)
		ksp.SetAttr("kernel_workers", s.workers)
	}
	x := e.Get(1, nn.Act{H: h, W: w}, 7, img.Data) // 7: the stem kernel
	y := kernels.Walk[nn.Act](m.Cfg.Arch(), e, x, ksp)
	copy(out.Data, y.Data)
	if m.Cfg.Residual {
		out.AddInPlace(img) // ag.Add with the network's output on the left
	}
	out.Clamp(0, 1)
	e.Free(y)
	e.Free(x)
	ksp.End()
	sp.End()
	*e = eval{}
	evalPool.Put(e)
}

// split is a forward's parallel axis: groups runs of contiguous images
// side by side, each on kernels with workers workers.
type split struct{ groups, workers int }

// planSplit picks the parallel axis of a forward over n images on w
// workers: g = min(w, n) groups of contiguous images with w/g kernel
// workers each, every forward one image. One group — one image, or one
// worker — is the kernel split: its forwards, one after another, share
// each kernel's tiles or planes among w workers. More groups is the
// slice split: the groups run side by side, each on its own workers.
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
// parallel.DefaultWorkers (planSplit). Every forward is one image, so
// a channel prefix of a dense block is contiguous. The groups go to
// the worker pool in one dispatch (one group runs inline), and each
// group enhances its images one at a time on its own scope of mem, so
// peak activation memory is one single-image forward per group. At
// serving shapes the slice split is the faster axis: a GEMM tile holds
// 64 columns or more per worker, so the 7×7 stem, every 1×1 layer and
// every layer at 32×32 or below is a few tiles at most. Per-image
// forwards are independent and every kernel is bit-identical across
// worker counts, so the choice never changes an output bit.
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
	j := groupJob{m: m, ctx: ctx, mem: mem, imgs: imgs, outs: outs, split: s}
	if s.groups == 1 {
		j.Run(0, 1) // inline, with no pooled job to recycle
		return
	}
	parallel.ForPooled(&groupJobs, s.groups, s.groups, j)
}

// groupJob is a split's forwards, handed to the worker pool through
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

// Run runs groups [lo, hi): group g enhances images
// [g·n/groups, (g+1)·n/groups) one after another on its own scope of
// the caller's arena (a Scope is single-goroutine; the arena is not).
func (j *groupJob) Run(lo, hi int) {
	n, groups := len(j.imgs), j.split.groups
	for g := lo; g < hi; g++ {
		sc := j.mem.NewScope()
		for i := g * n / groups; i < (g+1)*n/groups; i++ {
			j.m.forwardInto(j.ctx, sc, j.imgs[i], j.outs[i], j.split)
		}
		sc.Close()
	}
}
