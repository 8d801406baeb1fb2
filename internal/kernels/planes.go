package kernels

import (
	"fmt"
	"math"
	"sync"

	"computecovid19/internal/parallel"
)

// The non-convolution ops of §4.2 — max pooling, bilinear un-pooling,
// inference BatchNorm and LeakyReLU — plus the plan's folded
// BatchNorm+LeakyReLU each have exactly one forward, here, over flat
// buffers of planes. ag's graph and eval ops, DDnet, the classifier and
// the Table 5 timer all call it. Planes (elements, for LeakyReLU) are
// independent, so every worker count produces the same bits; all five
// ops dispatch through one pooled job type, opJob.

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
// (0: the default count). Padded cells are ignored. Each window is
// scanned in (kz, ky, kx) order and a value is kept only when it is
// strictly larger than the best so far: a tie goes to the earliest tap,
// NaN never wins, and a window of NaN, −Inf and padding alone gives
// −Inf. A non-nil argmax receives the flat index into x of each
// output's maximum (−1 for such a window), which the graph op's
// backward follows. A shape or operand that does not fit panics here,
// on the caller's goroutine.
func MaxPool(x, out []float32, argmax []int32, s PoolShape, workers int) {
	s.check(x, out, argmax)
	opJob{op: opMaxPool, x: x, out: out, argmax: argmax, pool: s}.run(s.C, workers)
}

// BilinearTable holds Upsample's per-axis source indices and weights
// for one (in, out) axis pair; a warm decoder caches it and recomputes
// nothing per forward.
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
		i0 := min(int(math.Floor(src)), in-1)
		t.Lo[d], t.Hi[d] = i0, min(i0+1, in-1)
		t.Frac[d] = float32(src - float64(i0))
	}
	return t
}

// Upsample resamples each of the c planes of h×w cells in x with
// bilinear interpolation to the len(ty.Lo)×len(tx.Lo) planes of out
// the tables were built for (DDnet's un-pooling, §2.2.2), on up to
// workers workers (0: the default count).
func Upsample(x, out []float32, c, h, w int, ty, tx *BilinearTable, workers int) {
	opJob{op: opUpsample, x: x, out: out, h: h, w: w, ty: ty, tx: tx}.run(c, workers)
}

// BatchNormInfer applies inference-mode batch normalization to x's
// planes of hw cells — back-to-back (c, hw) images, any number of them
// — writing out (which may alias x): y = γ·x̂ + β with x̂ = (x−μ)·is and
// the inverse standard deviation is = 1/√(σ²+ε) taken in float64
// before narrowing.
func BatchNormInfer(x, out []float32, c, hw int, gamma, beta, mean, variance []float32, eps float32, workers int) {
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
// concat consumed by other readers) use this instead.
func BNActInfer(x, out []float32, c, hw int, scale, shift []float32, slope float32, workers int) {
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

// maxPool scans each window clipped to the input (window): the taps an
// unclipped scan would not skip, in the same order, so the same bits.
func (j *opJob) maxPool(lo, hi int) {
	s, x, out, argmax := j.pool, j.x, j.out, j.argmax
	d, kd, sd, pd := s.depth()
	od, oh, ow := s.Out()
	o := lo * od * oh * ow
	for pl := lo; pl < hi; pl++ {
		for oz := 0; oz < od; oz++ {
			z0, z1 := window(oz, kd, sd, pd, d)
			for oy := 0; oy < oh; oy++ {
				y0, y1 := window(oy, s.K, s.S, s.P, s.H)
				for ox := 0; ox < ow; ox++ {
					x0, x1 := window(ox, s.K, s.S, s.P, s.W)
					best, bi := float32(math.Inf(-1)), -1
					for iz := z0; iz < z1; iz++ {
						for iy := y0; iy < y1; iy++ {
							row := ((pl*d+iz)*s.H + iy) * s.W
							for ix := row + x0; ix < row+x1; ix++ {
								if v := x[ix]; v > best {
									best, bi = v, ix
								}
							}
						}
					}
					out[o] = best
					if argmax != nil {
						argmax[o] = int32(bi)
					}
					o++
				}
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

func (j *opJob) upsample(lo, hi int) {
	x, out, h, w, ty, tx := j.x, j.out, j.h, j.w, j.ty, j.tx
	oh, ow := len(ty.Lo), len(tx.Lo)
	for pl := lo; pl < hi; pl++ {
		xbase, obase := pl*h*w, pl*oh*ow
		for oy := 0; oy < oh; oy++ {
			r0, r1, wy := xbase+ty.Lo[oy]*w, xbase+ty.Hi[oy]*w, ty.Frac[oy]
			for ox := 0; ox < ow; ox++ {
				x0, x1, wx := tx.Lo[ox], tx.Hi[ox], tx.Frac[ox]
				v00, v01 := x[r0+x0], x[r0+x1]
				v10, v11 := x[r1+x0], x[r1+x1]
				top := v00 + wx*(v01-v00)
				bot := v10 + wx*(v11-v10)
				out[obase+oy*ow+ox] = top + wy*(bot-top)
			}
		}
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

func (j *opJob) bnAct(lo, hi int) {
	x, out, hw, slope := j.x, j.out, j.hw, j.slope
	for ci := lo; ci < hi; ci++ {
		s, t := j.scale[ci], j.shift[ci]
		for i := ci * hw; i < (ci+1)*hw; i++ {
			v := s*x[i] + t
			if v < 0 {
				v = slope * v
			}
			out[i] = v
		}
	}
}
