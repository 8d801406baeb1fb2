package ag

import (
	"fmt"
	"math"
	"sync"

	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/parallel"
	"computecovid19/internal/tensor"
)

// Forward kernels. Each op that runs on both the autograd tape and the
// pooled inference path has its forward arithmetic written exactly
// once, here, as an Eval* function over plain tensors. There are two
// callers. The eval path passes a memplan.Scope: the output is drawn
// from it, no tape is built, and a warm arena makes the call
// allocation-free. The graph op of the same name passes a nil scope —
// the output is then a fresh heap tensor the tape owns — checks its
// operands' ranks first, and attaches the backward pass. Both therefore
// produce the same bits by construction; TestGraphAndEvalShareOneKernel
// pins it.
//
// The convolutions run on internal/kernels, which splits their GEMM
// column tiles across workers itself. The other parallel ops go
// through forPlanes. Its worker count is the caller's:
// the DDnet eval forward passes the one its planner chose
// (ddnet.EnhanceBatchInto), every other caller 0, the default. One
// worker runs the plane loop inline; more hand it to the pool through
// parallel.ForPooled rather than as a closure, so neither branch
// allocates. Per-plane work is independent, so every worker count
// produces identical bits.

// output returns the tensor a forward kernel writes into: pooled from
// sc on the eval path, fresh from the heap when sc is nil.
func output(sc *memplan.Scope, shape ...int) *tensor.Tensor {
	if sc == nil {
		return tensor.New(shape...)
	}
	return sc.Get(shape...)
}

// planeJob is one forPlanes loop as a parallel.Job.
type planeJob[T any] struct {
	arg T
	f   func(T, int)
}

func (j *planeJob[T]) Run(lo, hi int) {
	for i := lo; i < hi; i++ {
		j.f(j.arg, i)
	}
}

// Each args type recycles its own *planeJob through parallel.ForPooled.
var maxPool2DJobs, upsampleJobs, maxPool3DJobs sync.Pool

// forPlanes runs f(arg, plane) for plane in [0, n) on up to workers
// workers (0: parallel.DefaultWorkers), drawing the job from jobs, the
// pool of *planeJob[T], when it splits.
func forPlanes[T any](jobs *sync.Pool, n, workers int, arg T, f func(T, int)) {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers == 1 || n < 2 {
		for i := 0; i < n; i++ {
			f(arg, i)
		}
		return
	}
	parallel.ForPooled(jobs, n, workers, planeJob[T]{arg: arg, f: f})
}

// EvalConv2D runs a stride-1 "same" odd-square-kernel convolution — or,
// with transposed set, transposed convolution — on the selected
// internal/kernels ladder rung (kernels.Default) on workers kernel
// workers (0: the default count), batch elements in series. Every DDnet
// layer has this shape. Weights are (OutC, InC, K, K), or (InC, OutC,
// K, K) when transposed; b may be nil.
func EvalConv2D(sc *memplan.Scope, x, w, b *tensor.Tensor, transposed bool, workers int) *tensor.Tensor {
	checkConv(x, w, b, 4, transposed)
	n, cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout := w.Shape[0]
	im := kernels.Default()
	run := im.Conv
	if transposed {
		cout, run = w.Shape[1], im.Deconv
	}
	out := output(sc, n, cout, h, wd)
	ks := kernels.ConvShape{InC: cin, H: h, W: wd, OutC: cout, K: w.Shape[2]}
	plane := cin * h * wd
	oplane := cout * h * wd
	for ni := 0; ni < n; ni++ {
		run(x.Data[ni*plane:(ni+1)*plane], w.Data,
			out.Data[ni*oplane:(ni+1)*oplane], ks, workers)
	}
	addBias(out.Data, b, n, cout, h*wd)
	return out
}

// checkConv panics unless x, w and b form a stride-1 "same"
// convolution of the given rank (4: 2D, 5: 3D) with an odd square or
// cubic kernel: x (N, Cin, spatial...), w (Cout, Cin, K...) — (Cin,
// Cout, K, K) when transposed — and b (Cout) or nil. Both forwards run
// it on the caller's goroutine, before any tile is dispatched: a bad
// operand must panic where the caller can recover it, not on a pool
// worker, which would take the process down.
func checkConv(x, w, b *tensor.Tensor, rank int, transposed bool) {
	op := "Conv3D"
	if rank == 4 {
		op = "Conv2D"
		if transposed {
			op = "ConvTranspose2D"
		}
	}
	if x.Rank() != rank || w.Rank() != rank {
		panic(fmt.Sprintf("ag: %s wants rank-%d x and w, got %v and %v", op, rank, x.Shape, w.Shape))
	}
	cout, cin := w.Shape[0], w.Shape[1]
	if transposed {
		cout, cin = cin, cout
	}
	if x.Shape[1] != cin {
		panic(fmt.Sprintf("ag: %s channel mismatch: x has %d, w expects %d", op, x.Shape[1], cin))
	}
	k := w.Shape[2]
	for _, e := range w.Shape[3:] {
		if e != k {
			k = 0
		}
	}
	if k%2 == 0 {
		panic(fmt.Sprintf("ag: %s wants an odd square or cubic kernel, got w %v", op, w.Shape))
	}
	if b != nil && (b.Rank() != 1 || b.Shape[0] != cout) {
		panic(fmt.Sprintf("ag: %s bias shape %v, want (%d)", op, b.Shape, cout))
	}
}

// addBias adds the per-channel bias to an (N, C, spatial) buffer (a
// no-op for nil bias).
func addBias(out []float32, b *tensor.Tensor, n, cout, cols int) {
	if b == nil {
		return
	}
	for ni := 0; ni < n; ni++ {
		for co := 0; co < cout; co++ {
			base := (ni*cout + co) * cols
			bias := b.Data[co]
			for i := 0; i < cols; i++ {
				out[base+i] += bias
			}
		}
	}
}

// EvalLeakyReLUInPlace applies LeakyReLU's elementwise map in place.
// Safe only on freshly produced tensors (the graph op is out-of-place).
// Slope 0 is ReLU, including its 0·v = -0.0 treatment of negatives.
func EvalLeakyReLUInPlace(t *tensor.Tensor, slope float32) {
	d := t.Data
	for i, v := range d {
		if v < 0 {
			d[i] = slope * v
		}
	}
}

type maxPool2DArgs struct {
	xd, od       []float32
	argmax       []int32 // flat input index of each output's maximum; nil when no backward will run
	h, w, oh, ow int
	k, s, p      int
}

func maxPool2DPlane(a maxPool2DArgs, plane int) {
	xbase := plane * a.h * a.w
	obase := plane * a.oh * a.ow
	for oy := 0; oy < a.oh; oy++ {
		for ox := 0; ox < a.ow; ox++ {
			best := float32(math.Inf(-1))
			bi := int32(-1)
			for ky := 0; ky < a.k; ky++ {
				iy := oy*a.s - a.p + ky
				if iy < 0 || iy >= a.h {
					continue
				}
				for kx := 0; kx < a.k; kx++ {
					ix := ox*a.s - a.p + kx
					if ix < 0 || ix >= a.w {
						continue
					}
					if v := a.xd[xbase+iy*a.w+ix]; v > best {
						best = v
						bi = int32(xbase + iy*a.w + ix)
					}
				}
			}
			a.od[obase+oy*a.ow+ox] = best
			if a.argmax != nil {
				a.argmax[obase+oy*a.ow+ox] = bi
			}
		}
	}
}

// EvalMaxPool2D max-pools each (H, W) plane of a (N, C, H, W) tensor
// on up to workers workers (0: the default count); padded cells act as
// -inf.
func EvalMaxPool2D(sc *memplan.Scope, x *tensor.Tensor, cfg Pool2DConfig, workers int) *tensor.Tensor {
	out, _ := maxPool2D(sc, x, cfg, false, workers)
	return out
}

// maxPool2D is the pooling forward; with record set it also returns
// each output's argmax for the graph op's backward scatter.
func maxPool2D(sc *memplan.Scope, x *tensor.Tensor, cfg Pool2DConfig, record bool, workers int) (*tensor.Tensor, []int32) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	k, s, p := cfg.Kernel, cfg.Stride, cfg.Padding
	oh, ow := convOutDim(h, k, s, p), convOutDim(w, k, s, p)
	if oh <= 0 || ow <= 0 {
		panic("ag: MaxPool2D output would be empty")
	}
	out := output(sc, n, c, oh, ow)
	var argmax []int32
	if record {
		argmax = make([]int32, len(out.Data))
	}
	forPlanes(&maxPool2DJobs, n*c, workers, maxPool2DArgs{
		xd: x.Data, od: out.Data, argmax: argmax,
		h: h, w: w, oh: oh, ow: ow, k: k, s: s, p: p,
	}, maxPool2DPlane)
	return out, argmax
}

// BilinearTable holds UpsampleBilinear2D's per-axis source indices and
// weights for one (in, out) axis pair; a warm decoder caches it and
// recomputes nothing per forward.
type BilinearTable struct {
	Lo, Hi []int
	Frac   []float32
}

// NewBilinearTable precomputes, for each destination index along one
// axis, the two source indices and the fractional weight of the second
// one, with the half-pixel (align_corners=false) convention: the source
// coordinate of destination d is (d+0.5)·in/out − 0.5. Lo == Hi at the
// clamped borders, where the two weights collapse onto one source cell.
func NewBilinearTable(in, out int) *BilinearTable {
	t := &BilinearTable{Lo: make([]int, out), Hi: make([]int, out), Frac: make([]float32, out)}
	scale := float64(in) / float64(out)
	for d := 0; d < out; d++ {
		src := (float64(d)+0.5)*scale - 0.5
		if src < 0 {
			src = 0
		}
		i0 := int(math.Floor(src))
		if i0 > in-1 {
			i0 = in - 1
		}
		i1 := i0 + 1
		if i1 > in-1 {
			i1 = in - 1
		}
		t.Lo[d], t.Hi[d] = i0, i1
		t.Frac[d] = float32(src - float64(i0))
	}
	return t
}

type upsampleArgs struct {
	xd, od       []float32
	h, w, oh, ow int
	ty, tx       *BilinearTable
}

func upsamplePlane(a upsampleArgs, plane int) {
	xbase := plane * a.h * a.w
	obase := plane * a.oh * a.ow
	for oy := 0; oy < a.oh; oy++ {
		y0, y1, wy := a.ty.Lo[oy], a.ty.Hi[oy], a.ty.Frac[oy]
		for ox := 0; ox < a.ow; ox++ {
			x0, x1, wx := a.tx.Lo[ox], a.tx.Hi[ox], a.tx.Frac[ox]
			v00 := a.xd[xbase+y0*a.w+x0]
			v01 := a.xd[xbase+y0*a.w+x1]
			v10 := a.xd[xbase+y1*a.w+x0]
			v11 := a.xd[xbase+y1*a.w+x1]
			top := v00 + wx*(v01-v00)
			bot := v10 + wx*(v11-v10)
			a.od[obase+oy*a.ow+ox] = top + wy*(bot-top)
		}
	}
}

// EvalUpsampleBilinear2D resamples each (H, W) plane with bilinear
// interpolation to the size the caller's axis tables (cached per shape
// on the serving path) were built for, on up to workers workers (0: the
// default count).
func EvalUpsampleBilinear2D(sc *memplan.Scope, x *tensor.Tensor, ty, tx *BilinearTable, workers int) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := len(ty.Lo), len(tx.Lo)
	out := output(sc, n, c, oh, ow)
	forPlanes(&upsampleJobs, n*c, workers, upsampleArgs{
		xd: x.Data, od: out.Data,
		h: h, w: w, oh: oh, ow: ow, ty: ty, tx: tx,
	}, upsamplePlane)
	return out
}

// EvalConcat joins vs along axis; all other dimensions must match. It
// returns the input itself (not a copy) when vs has one element, so
// the result is scope-owned only when it is fresh.
func EvalConcat(sc *memplan.Scope, axis int, vs []*tensor.Tensor) *tensor.Tensor {
	if len(vs) == 0 {
		panic("ag: Concat of zero tensors")
	}
	if len(vs) == 1 {
		return vs[0]
	}
	rank := vs[0].Rank()
	var shapeArr [8]int
	outShape := shapeArr[:rank]
	copy(outShape, vs[0].Shape)
	outShape[axis] = 0
	for _, v := range vs {
		if v.Rank() != rank {
			panic("ag: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && v.Shape[d] != vs[0].Shape[d] {
				panic("ag: Concat non-axis dimension mismatch")
			}
		}
		outShape[axis] += v.Shape[axis]
	}
	out := output(sc, outShape...)
	// Copy each input block into its slot along the axis.
	outer, inner := concatExtents(outShape, axis)
	outAxis := outShape[axis]
	offset := 0
	for _, v := range vs {
		ax := v.Shape[axis]
		for o := 0; o < outer; o++ {
			src := v.Data[o*ax*inner : (o+1)*ax*inner]
			dst := out.Data[(o*outAxis+offset)*inner : (o*outAxis+offset)*inner+ax*inner]
			copy(dst, src)
		}
		offset += ax
	}
	return out
}

// concatExtents splits a concat output shape around the axis: outer is
// the product of the dimensions before it, inner of those after.
func concatExtents(shape []int, axis int) (outer, inner int) {
	outer, inner = 1, 1
	for _, d := range shape[:axis] {
		outer *= d
	}
	for _, d := range shape[axis+1:] {
		inner *= d
	}
	return outer, inner
}

// EvalConv3D cross-correlates (N, Cin, D, H, W) volumes with weights
// (Cout, Cin, K, K, K) — a stride-1 "same" layer with an odd cubic
// kernel, the only shape the classifier has — on the fused GEMM
// (kernels.ConvFused), batch elements in series, with the bias (b may
// be nil) seeding each output's sum. The GEMM then adds the taps in
// (ci, kz, ky, kx) order and a padded tap adds an exact zero, so the
// bits are those of the direct loop nest (TestEvalConv3DMatchesDirectNest).
func EvalConv3D(sc *memplan.Scope, x, w, b *tensor.Tensor) *tensor.Tensor {
	checkConv(x, w, b, 5, false)
	n, cin, dd, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	cout := w.Shape[0]
	out := output(sc, n, cout, dd, h, wd)
	ks := kernels.ConvShape{InC: cin, D: dd, H: h, W: wd, OutC: cout, K: w.Shape[2]}
	var ep kernels.Epilogue
	if b != nil {
		ep.Bias = b.Data
	}
	in, o := ks.InLen(), ks.OutLen()
	for ni := 0; ni < n; ni++ {
		kernels.ConvFused(x.Data[ni*in:(ni+1)*in], w.Data, out.Data[ni*o:(ni+1)*o], ks, 0, ep)
	}
	return out
}

type maxPool3DArgs struct {
	xd, od            []float32
	argmax            []int32 // as maxPool2DArgs.argmax
	dd, h, w          int
	od0, oh, ow       int
	k, s, p           int
	planeIn, planeOut int
}

func maxPool3DPlane(a maxPool3DArgs, plane int) {
	xbase := plane * a.planeIn
	obase := plane * a.planeOut
	for oz := 0; oz < a.od0; oz++ {
		for oy := 0; oy < a.oh; oy++ {
			for ox := 0; ox < a.ow; ox++ {
				best := float32(math.Inf(-1))
				bi := int32(-1)
				for kz := 0; kz < a.k; kz++ {
					iz := oz*a.s - a.p + kz
					if iz < 0 || iz >= a.dd {
						continue
					}
					for ky := 0; ky < a.k; ky++ {
						iy := oy*a.s - a.p + ky
						if iy < 0 || iy >= a.h {
							continue
						}
						for kx := 0; kx < a.k; kx++ {
							ix := ox*a.s - a.p + kx
							if ix < 0 || ix >= a.w {
								continue
							}
							if v := a.xd[xbase+(iz*a.h+iy)*a.w+ix]; v > best {
								best = v
								bi = int32(xbase + (iz*a.h+iy)*a.w + ix)
							}
						}
					}
				}
				a.od[obase+(oz*a.oh+oy)*a.ow+ox] = best
				if a.argmax != nil {
					a.argmax[obase+(oz*a.oh+oy)*a.ow+ox] = bi
				}
			}
		}
	}
}

// EvalMaxPool3D max-pools (N, C, D, H, W) volumes with a cubic kernel.
func EvalMaxPool3D(sc *memplan.Scope, x *tensor.Tensor, cfg Pool2DConfig) *tensor.Tensor {
	out, _ := maxPool3D(sc, x, cfg, false)
	return out
}

// maxPool3D is maxPool2D's volumetric counterpart.
func maxPool3D(sc *memplan.Scope, x *tensor.Tensor, cfg Pool2DConfig, record bool) (*tensor.Tensor, []int32) {
	n, c, dd, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	k, s, p := cfg.Kernel, cfg.Stride, cfg.Padding
	od0 := convOutDim(dd, k, s, p)
	oh := convOutDim(h, k, s, p)
	ow := convOutDim(w, k, s, p)
	if od0 <= 0 || oh <= 0 || ow <= 0 {
		panic("ag: MaxPool3D output would be empty")
	}
	out := output(sc, n, c, od0, oh, ow)
	var argmax []int32
	if record {
		argmax = make([]int32, len(out.Data))
	}
	forPlanes(&maxPool3DJobs, n*c, 0, maxPool3DArgs{
		xd: x.Data, od: out.Data, argmax: argmax,
		dd: dd, h: h, w: w, od0: od0, oh: oh, ow: ow, k: k, s: s, p: p,
		planeIn: dd * h * w, planeOut: od0 * oh * ow,
	}, maxPool3DPlane)
	return out, argmax
}

// EvalGlobalAvgPool3D averages each channel's (D, H, W) volume down to
// a single value, producing (N, C).
func EvalGlobalAvgPool3D(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	n, c := x.Shape[0], x.Shape[1]
	spatial := x.Shape[2] * x.Shape[3] * x.Shape[4]
	out := output(sc, n, c)
	for plane := 0; plane < n*c; plane++ {
		var acc float64
		base := plane * spatial
		for i := 0; i < spatial; i++ {
			acc += float64(x.Data[base+i])
		}
		out.Data[plane] = float32(acc / float64(spatial))
	}
	return out
}

// EvalBatchNorm normalizes x (N, C, spatial...) per channel with fixed
// statistics — batch norm in eval mode, where the op reduces to one
// affine map per channel. The inverse standard deviation is computed in
// float64 before narrowing.
func EvalBatchNorm(sc *memplan.Scope, x, gamma, beta, mean, variance *tensor.Tensor, eps float32) *tensor.Tensor {
	n, c := x.Shape[0], x.Shape[1]
	spatial := 1
	for _, d := range x.Shape[2:] {
		spatial *= d
	}
	out := output(sc, x.Shape...)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * spatial
			g := gamma.Data[ci]
			b := beta.Data[ci]
			mu := mean.Data[ci]
			is := float32(1.0 / math.Sqrt(float64(variance.Data[ci])+float64(eps)))
			for i := 0; i < spatial; i++ {
				xh := (x.Data[base+i] - mu) * is
				out.Data[base+i] = g*xh + b
			}
		}
	}
	return out
}

// EvalLinear computes x·wᵀ + b for x (N, In) and w (Out, In); b may be
// nil.
func EvalLinear(sc *memplan.Scope, x, w, b *tensor.Tensor) *tensor.Tensor {
	n, in := x.Shape[0], x.Shape[1]
	outF := w.Shape[0]
	out := output(sc, n, outF)
	xd, wd, od := x.Data, w.Data, out.Data
	for ni := 0; ni < n; ni++ {
		for o := 0; o < outF; o++ {
			var acc float32
			if b != nil {
				acc = b.Data[o]
			}
			xrow := ni * in
			wrow := o * in
			for i := 0; i < in; i++ {
				acc += xd[xrow+i] * wd[wrow+i]
			}
			od[ni*outF+o] = acc
		}
	}
	return out
}

// EvalSigmoid computes Sigmoid's elementwise map on one value.
func EvalSigmoid(v float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(v))))
}
