package kernels

import (
	"fmt"
	"math"
	"sync"

	"computecovid19/internal/memplan"
	"computecovid19/internal/parallel"
)

// The non-convolution ops of §4.2 — max pooling, bilinear un-pooling,
// inference BatchNorm and LeakyReLU — plus the plan's folded
// BatchNorm+LeakyReLU each have exactly one forward, here, over flat
// buffers of planes. ag's graph and eval ops, DDnet, the classifier and
// the Table 5 timer all call it. Planes (elements, for LeakyReLU) are
// independent, so every worker count produces the same bits; all five
// ops check their operands on the caller's goroutine and dispatch
// through one pooled job type, opJob.
//
// The pool and the up-sample are vectorized the way §4.2 vectorizes the
// convolution, without moving a bit. The max pool is separable — x,
// then y, then z passes over pooled scratch rows, each keeping the
// first maximal tap — and its graph caller's argmax is recovered from
// the output afterwards. The up-sample interpolates each source row
// once and blends output rows from them. Their four-lane SSE steps are
// in planes_amd64.s; the Go loops here do clipped borders, other
// shapes and short rows, and everything off amd64 (planes_other.go).

// PoolShape describes a max pool over C planes of H×W cells with a
// K×K window moving S cells at a time over input padded P cells on
// each side. A depth D > 0 makes it volumetric: D×H×W planes and a
// K×K×K window, strided and padded alike on every axis. D == 0 is the
// 2D pool — one cell deep with a depth window of 1, the way
// ConvShape.D == 0 is the 2D convolution.
type PoolShape struct {
	C, D, H, W int
	K, S, P    int
}

// depth returns the plane depth and the depth window, stride and
// padding: (1, 1, 1, 0) for a 2D pool.
func (s PoolShape) depth() (d, kd, sd, pd int) {
	if s.D == 0 {
		return 1, 1, 1, 0
	}
	return s.D, s.K, s.S, s.P
}

// Out returns the output extents, od = 1 for a 2D pool. A non-positive
// extent means the window does not fit.
func (s PoolShape) Out() (od, oh, ow int) {
	d, kd, sd, pd := s.depth()
	return (d+2*pd-kd)/sd + 1, (s.H+2*s.P-s.K)/s.S + 1, (s.W+2*s.P-s.K)/s.S + 1
}

// check panics unless s has positive dimensions and a non-empty output
// and x, out and argmax (when non-nil) hold what the pool reads and
// writes.
func (s PoolShape) check(x, out []float32, argmax []int32) {
	if s.C <= 0 || s.D < 0 || s.H <= 0 || s.W <= 0 || s.K <= 0 || s.S <= 0 || s.P < 0 {
		panic(fmt.Sprintf("kernels: MaxPool shape %+v has a non-positive dimension", s))
	}
	d, _, _, _ := s.depth()
	od, oh, ow := s.Out()
	if od <= 0 || oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("kernels: MaxPool shape %+v has an empty output", s))
	}
	in, o := s.C*d*s.H*s.W, s.C*od*oh*ow
	if len(x) < in || len(out) < o || (argmax != nil && len(argmax) < o) {
		panic(fmt.Sprintf("kernels: MaxPool %+v needs %d inputs and %d outputs, got %d, %d and %d argmax",
			s, in, o, len(x), len(out), len(argmax)))
	}
}

// MaxPool max-pools each plane of x into out on up to workers workers
// (0: the default count). Padded cells are ignored. Each output is what
// a scan of its window in (kz, ky, kx) order gives when it keeps a
// value only when it is strictly larger than the best so far: a tie
// goes to the earliest tap, NaN never wins, and a window of NaN, −Inf
// and padding alone gives −Inf. A non-nil argmax receives the flat
// index into x of that tap (−1 for such a window), which the graph
// op's backward follows. A shape or operand that does not fit panics
// here, on the caller's goroutine.
func MaxPool(x, out []float32, argmax []int32, s PoolShape, workers int) {
	s.check(x, out, argmax)
	opJob{op: opMaxPool, x: x, out: out, argmax: argmax, pool: s}.run(s.C, workers)
}

// BilinearTable holds Upsample's per-axis source indices and weights
// for one (in, out) axis pair; a warm decoder caches it and recomputes
// nothing per forward. A table is not changed after NewBilinearTable.
type BilinearTable struct {
	Lo, Hi []int
	Frac   []float32
	// pairs says the table doubles an axis of at least two cells:
	// inside the two border outputs, outputs 2i+1 and 2i+2 both blend
	// source cells i and i+1, with weights Frac[1] and Frac[2].
	pairs bool
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
		i0 := min(int(math.Floor(src)), in-1)
		t.Lo[d], t.Hi[d] = i0, min(i0+1, in-1)
		t.Frac[d] = float32(src - float64(i0))
	}
	t.pairs = out == 2*in && in >= 2
	for d := 1; t.pairs && d < out-1; d++ {
		i := (d - 1) / 2
		t.pairs = t.Lo[d] == i && t.Hi[d] == i+1 && t.Frac[d] == t.Frac[2-d%2]
	}
	return t
}

// Upsample resamples each of the c planes of h×w cells in x with
// bilinear interpolation to the len(ty.Lo)×len(tx.Lo) planes of out
// the tables were built for (DDnet's un-pooling, §2.2.2), on up to
// workers workers (0: the default count). Each out plane is
// halo-padded by halo cells on each side, its halo left as it is
// (0: compact). An operand that does not fit panics here, on the
// caller's goroutine.
func Upsample(x, out []float32, c, h, w, halo int, ty, tx *BilinearTable, workers int) {
	if c <= 0 || h <= 0 || w <= 0 || halo < 0 || !ty.fits(h) || !tx.fits(w) {
		panic(fmt.Sprintf("kernels: Upsample of %d planes of %d×%d has a non-positive dimension or a table that does not fit", c, h, w))
	}
	if in, o := c*h*w, c*(len(ty.Lo)+2*halo)*(len(tx.Lo)+2*halo); len(x) < in || len(out) < o {
		panic(fmt.Sprintf("kernels: Upsample of %d planes of %d×%d needs %d inputs and %d outputs, got %d and %d",
			c, h, w, in, o, len(x), len(out)))
	}
	opJob{op: opUpsample, x: x, out: out, h: h, w: w, halo: halo, ty: ty, tx: tx}.run(c, workers)
}

// fits reports whether t maps onto an axis of in cells: it has an
// output, one weight per output, and every source index in [0, in).
func (t *BilinearTable) fits(in int) bool {
	n := len(t.Lo)
	if n == 0 || len(t.Hi) != n || len(t.Frac) != n {
		return false
	}
	for d := range n {
		if uint(t.Lo[d]) >= uint(in) || uint(t.Hi[d]) >= uint(in) {
			return false
		}
	}
	return true
}

// BatchNormInfer applies inference-mode batch normalization to x's
// planes of hw cells — back-to-back (c, hw) images, any number of them
// — writing out (which may alias x): y = γ·x̂ + β with x̂ = (x−μ)·is and
// the inverse standard deviation is = 1/√(σ²+ε) taken in float64
// before narrowing. An operand that does not fit panics here, on the
// caller's goroutine.
func BatchNormInfer(x, out []float32, c, hw int, gamma, beta, mean, variance []float32, eps float32, workers int) {
	if c <= 0 || hw < 0 || len(out) < len(x) || (hw > 0 && len(x)%(c*hw) != 0) ||
		min(len(gamma), len(beta), len(mean), len(variance)) < c {
		panic(fmt.Sprintf("kernels: BatchNormInfer of %d values in images of %d channels × %d cells got %d outputs and γ, β, μ, σ² of %d, %d, %d, %d",
			len(x), c, hw, len(out), len(gamma), len(beta), len(mean), len(variance)))
	}
	if hw == 0 {
		return
	}
	opJob{op: opBatchNorm, x: x, out: out, c: c, hw: hw,
		scale: gamma, shift: beta, mean: mean, variance: variance, eps: eps}.run(len(x)/hw, workers)
}

// LeakyReLU applies max(x, slope·x) in place (slope·x where x < 0, so
// slope 0 maps a negative to −0).
func LeakyReLU(x []float32, slope float32, workers int) {
	opJob{op: opLeakyReLU, x: x, slope: slope}.run(len(x), workers)
}

// BNActInfer applies a pre-folded inference BatchNorm and LeakyReLU in
// one pass: out[c][i] = lrelu(scale[c]·x[c][i] + shift[c]). x and out
// may alias (pure elementwise map); hw is the per-channel plane size.
// The unfused path pays two full passes here (BatchNormInfer, then the
// activation); positions where a BatchNorm cannot be folded into a
// neighbouring convolution (DDnet's dense-layer BN1, whose input is a
// concat consumed by other readers) use this instead. An operand that
// does not fit panics here, on the caller's goroutine.
func BNActInfer(x, out []float32, c, hw int, scale, shift []float32, slope float32, workers int) {
	if c < 0 || hw < 0 || len(x) < c*hw || len(out) < c*hw || len(scale) < c || len(shift) < c {
		panic(fmt.Sprintf("kernels: BNActInfer of %d channels × %d cells got %d inputs, %d outputs, %d scales and %d shifts",
			c, hw, len(x), len(out), len(scale), len(shift)))
	}
	opJob{op: opBNAct, x: x, out: out, c: c, hw: hw, scale: scale, shift: shift, slope: slope}.run(c, workers)
}

type opKind int

const (
	opMaxPool opKind = iota
	opUpsample
	opBatchNorm
	opLeakyReLU
	opBNAct
)

// opJob is one call of the ops above as a parallel.Job over its units:
// planes, or elements for LeakyReLU.
type opJob struct {
	op     opKind
	x, out []float32
	argmax []int32   // MaxPool; nil when no backward will run
	pool   PoolShape // MaxPool
	h, w   int       // Upsample: the input plane
	halo   int       // Upsample: the output planes' padding
	ty, tx *BilinearTable
	c, hw  int // BatchNormInfer, BNActInfer: channels and plane size
	// scale and shift are γ and β for BatchNormInfer.
	scale, shift, mean, variance []float32
	eps, slope                   float32
}

var opJobs sync.Pool // of *opJob

// run does units [0, n) of j: inline on one worker or when there are
// fewer than two units, otherwise on the pool through
// parallel.ForPooled, so neither branch allocates.
func (j opJob) run(n, workers int) {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	if workers == 1 || n < 2 {
		j.Run(0, n)
		return
	}
	parallel.ForPooled(&opJobs, n, workers, j)
}

// Run does units [lo, hi).
func (j *opJob) Run(lo, hi int) {
	switch j.op {
	case opMaxPool:
		j.maxPool(lo, hi)
	case opUpsample:
		j.upsample(lo, hi)
	case opBatchNorm:
		j.batchNorm(lo, hi)
	case opLeakyReLU:
		x, slope := j.x[lo:hi], j.slope
		for i, v := range x {
			if v < 0 {
				x[i] = slope * v
			}
		}
	case opBNAct:
		j.bnAct(lo, hi)
	}
}

// negInf is the best of a window before its first tap, and its result
// when it holds nothing larger.
var negInf = float32(math.Inf(-1))

// maxPool pools each plane separably: along x, row by row, into
// scratch; then along y, combining whole pooled rows; then, for a
// volume, along z, combining whole pooled slabs. Every pass keeps a
// value only when it is strictly larger than the best so far, in tap
// order, so each pass picks its first maximal tap and the last picks
// the first maximal tap of the whole window in (z, y, x) order: the
// element a scan of the window's taps in that order keeps, with the
// same bits (a ±0 tie, a NaN that never wins, a −Inf window). The axis
// order matters for ties between +0 and −0, which is why x, the
// innermost axis of the scan, goes first.
func (j *opJob) maxPool(lo, hi int) {
	s := j.pool
	d, kd, sd, pd := s.depth()
	od, oh, ow := s.Out()
	in, plane := d*s.H*s.W, od*oh*ow
	rows := memplan.GetFloats(s.H * ow) // one slab's x pass
	var slabs []float32                 // a volume's y pass
	if s.D > 0 {
		slabs = memplan.GetFloats(d * oh * ow)
	}
	for pl := lo; pl < hi; pl++ {
		x, out := j.x[pl*in:(pl+1)*in], j.out[pl*plane:(pl+1)*plane]
		ys := out
		if s.D > 0 {
			ys = slabs
		}
		for z := 0; z < d; z++ {
			for y := 0; y < s.H; y++ {
				r := z*s.H + y
				poolRow(rows[y*ow:(y+1)*ow], x[r*s.W:(r+1)*s.W], s.K, s.S, s.P)
			}
			for oy := 0; oy < oh; oy++ {
				y0, y1 := window(oy, s.K, s.S, s.P, s.H)
				o := (z*oh + oy) * ow
				poolRows(ys[o:o+ow], rows, y0, y1, ow)
			}
		}
		for oz := 0; s.D > 0 && oz < od; oz++ {
			z0, z1 := window(oz, kd, sd, pd, d)
			poolRows(out[oz*oh*ow:(oz+1)*oh*ow], slabs, z0, z1, oh*ow)
		}
		if j.argmax != nil {
			j.recoverArgmax(pl)
		}
	}
	memplan.PutFloats(rows)
	if slabs != nil {
		memplan.PutFloats(slabs)
	}
}

// poolRow max-pools one input row along x into dst, len(dst) outputs of
// a k-wide window at stride s over the row padded p cells on each side.
// A stride-2 window of 2 or 3 taps runs its interior, the outputs whose
// taps all lie in the row, on the vector step; the Go loop does the
// clipped borders, other shapes and rows the step leaves.
func poolRow(dst, row []float32, k, s, p int) {
	lo, n := 0, 0 // the vector step did outputs [lo, lo+n)
	if s == 2 && (k == 2 || k == 3) {
		lo = (p + 1) / 2 // the first window that starts in the row
		if hi := min(len(dst), (len(row)-k+p)/2+1); hi > lo {
			if k == 2 {
				n = maxPairs(dst[lo:hi], row[2*lo-p:])
			} else {
				n = maxTriples(dst[lo:hi], row[2*lo-p:])
			}
		}
	}
	for o := 0; o < len(dst); o++ {
		if o == lo {
			if o += n; o == len(dst) {
				break
			}
		}
		x0, x1 := window(o, k, s, p, len(row))
		best := negInf
		for i := x0; i < x1; i++ {
			if v := row[i]; v > best {
				best = v
			}
		}
		dst[o] = best
	}
}

// poolRows sets dst[j] to the first-wins maximum of src[r·n+j] over the
// rows r in [r0, r1) of n values each; an empty range gives −Inf.
func poolRows(dst, src []float32, r0, r1, n int) {
	done := 0
	if r1 > r0 {
		done = maxRows(dst, src[r0*n:], n, r1-r0)
	}
	for j := done; j < len(dst); j++ {
		best := negInf
		for r := r0; r < r1; r++ {
			if v := src[r*n+j]; v > best {
				best = v
			}
		}
		dst[j] = best
	}
}

// recoverArgmax sets plane pl's argmax from its pooled output: the flat
// index into x of the first tap of each window, in (z, y, x) order,
// whose value equals the output and is above −Inf. That is the tap a
// strict first-wins scan keeps: every earlier tap is smaller or NaN.
// A window with nothing above −Inf gets −1.
func (j *opJob) recoverArgmax(pl int) {
	s, x := j.pool, j.x
	d, kd, sd, pd := s.depth()
	od, oh, ow := s.Out()
	o := pl * od * oh * ow
	for oz := 0; oz < od; oz++ {
		z0, z1 := window(oz, kd, sd, pd, d)
		for oy := 0; oy < oh; oy++ {
			y0, y1 := window(oy, s.K, s.S, s.P, s.H)
			for ox := 0; ox < ow; ox++ {
				x0, x1 := window(ox, s.K, s.S, s.P, s.W)
				v, bi := j.out[o], -1
				if v > negInf {
				search:
					for iz := z0; iz < z1; iz++ {
						for iy := y0; iy < y1; iy++ {
							row := ((pl*d+iz)*s.H + iy) * s.W
							for ix := row + x0; ix < row+x1; ix++ {
								if x[ix] == v {
									bi = ix
									break search
								}
							}
						}
					}
				}
				j.argmax[o] = int32(bi)
				o++
			}
		}
	}
}

// window returns the in-bounds input range [lo, hi) of output position
// o's k-wide window at stride s and padding p over n cells; lo >= hi
// when the window holds padding only.
func window(o, k, s, p, n int) (lo, hi int) {
	lo = o*s - p
	return max(lo, 0), min(lo+k, n)
}

// upsample interpolates each source row along x once, into scratch,
// then blends each output row from its two interpolated source rows as
// top + wy·(bot−top): per output the same operations on the same
// values as blending the four neighbours directly, with each source
// row's horizontal pass shared by every output row that reads it.
func (j *opJob) upsample(lo, hi int) {
	h, w, p, ty, tx := j.h, j.w, j.halo, j.ty, j.tx
	oh, ow := len(ty.Lo), len(tx.Lo)
	plane, wp := (oh+2*p)*(ow+2*p), ow+2*p
	rows := memplan.GetFloats(h * ow)
	for pl := lo; pl < hi; pl++ {
		x, out := j.x[pl*h*w:(pl+1)*h*w], j.out[pl*plane+p*wp+p:]
		for y := 0; y < h; y++ {
			lerpRow(rows[y*ow:(y+1)*ow], x[y*w:(y+1)*w], tx)
		}
		for oy := 0; oy < oh; oy++ {
			top, bot := rows[ty.Lo[oy]*ow:(ty.Lo[oy]+1)*ow], rows[ty.Hi[oy]*ow:(ty.Hi[oy]+1)*ow]
			dst, wy := out[oy*wp:oy*wp+ow], ty.Frac[oy]
			for i := lerpRows(dst, top, bot, wy); i < len(dst); i++ {
				t := top[i]
				dst[i] = t + wy*(bot[i]-t)
			}
		}
	}
	memplan.PutFloats(rows)
}

// lerpRow interpolates one source row along x into dst by tx. A
// doubling table runs its interior, where each source pair feeds two
// outputs, on the vector step; the Go loop does the two border outputs
// and every output the step leaves.
func lerpRow(dst, src []float32, tx *BilinearTable) {
	n := 0 // the vector step did outputs [1, 1+n)
	if tx.pairs {
		n = 2 * lerpPairs(dst[1:len(dst)-1], src, tx.Frac[1], tx.Frac[2])
	}
	for o := 0; o < len(dst); o++ {
		if o == 1 {
			o += n
		}
		v0 := src[tx.Lo[o]]
		dst[o] = v0 + tx.Frac[o]*(src[tx.Hi[o]]-v0)
	}
}

func (j *opJob) batchNorm(lo, hi int) {
	x, out, hw := j.x, j.out, j.hw
	for pl := lo; pl < hi; pl++ {
		ci := pl % j.c
		g, b, mu := j.scale[ci], j.shift[ci], j.mean[ci]
		is := float32(1.0 / math.Sqrt(float64(j.variance[ci])+float64(j.eps)))
		for i := pl * hw; i < (pl+1)*hw; i++ {
			xh := (x[i] - mu) * is
			out[i] = g*xh + b
		}
	}
}

// bnAct maps channels [lo, hi): bnActRow's vector step first, then
// the Go loop, which has the same bits, for the rest.
func (j *opJob) bnAct(lo, hi int) {
	hw, slope := j.hw, j.slope
	for ci := lo; ci < hi; ci++ {
		s, t := j.scale[ci], j.shift[ci]
		x, out := j.x[ci*hw:(ci+1)*hw], j.out[ci*hw:(ci+1)*hw]
		for i := bnActRow(out, x, s, t, slope); i < hw; i++ {
			v := s*x[i] + t
			if v < 0 {
				v = slope * v
			}
			out[i] = v
		}
	}
}
