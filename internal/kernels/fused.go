package kernels

import (
	"fmt"
	"math"
	"sync"

	"computecovid19/internal/memplan"
	"computecovid19/internal/parallel"
)

// ConvFused is the implicit GEMM (gemm.go) with a per-output-channel
// epilogue — bias add plus optional LeakyReLU — applied in the
// micro-kernel's registers: the bias seeds the accumulators and the
// activation runs on them before the one store, so the epilogue costs
// no pass over memory at all. The padded input the GEMM reads is the
// panel, gemmBlock's 4-channel × 16-column register block is the compute-unit replication, and the AVX width is
// the vector width (gemm.go). Unfused, every layer would pay two extra
// full feature-map passes (BatchNorm read+write, activation read+write)
// after the convolution; with inference-mode BatchNorm folded into the
// weights at plan-compile time (nn.Trunk.Plan), the whole
// conv→BN→LeakyReLU sequence is one ConvFused call that touches the
// output exactly once. Transposed convolutions additionally stop
// re-flipping their weights per call: FlipDeconvWeights runs once at
// plan-compile time and the flipped panel is cached in the plan.

// Epilogue is the fused per-output-channel post-processing of ConvFused:
// out[c][·] = act(Σ + Bias[c]), with act = LeakyReLU(Slope) when Act is
// set. A nil Bias adds nothing; with the zero Epilogue ConvFused is the
// plain convolution.
type Epilogue struct {
	// Bias is added per output channel, seeding the accumulator (bias
	// and partial products commute bit-exactly only when the bias seeds
	// the sum, which is the order the fused numerics tests document).
	Bias []float32
	// Act applies LeakyReLU with Slope to the biased sum.
	Act bool
	// Slope is the LeakyReLU negative slope.
	Slope float32
}

// bias returns output channel co's bias, 0 without one.
func (ep Epilogue) bias(co int) float32 {
	if ep.Bias == nil {
		return 0
	}
	return ep.Bias[co]
}

// ConvFused computes a stride-1 "same" convolution (weights OutC, InC,
// K, K — or OutC, InC, K, K, K when s.D > 0) via the implicit GEMM with
// ep applied in registers, sharing the column tiles (gemmTiling) among
// workers workers (0: the default count). For transposed convolutions
// pass weights pre-flipped with FlipDeconvWeights — a stride-1
// deconvolution is exactly a convolution with the spatially flipped
// filter. A shape or operand that does not fit panics here, on the
// caller's goroutine, before any worker or assembly loop indexes it.
func ConvFused(x, w, out []float32, s ConvShape, workers int, ep Epilogue) {
	s.check(x, w, out, ep)
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	d, kd := s.depth()
	j := gemmJob{x: x, w: w, out: out, s: s, outCols: d * s.H * s.W, ep: ep, avx: useAVX}
	j.cols = j.outCols
	if s.K > 1 {
		// Columns run in padded-row space: (oz·Hp + oy)·Wp + ox.
		dp, hp, wp := s.padded()
		j.cols = ((d-1)*hp+s.H-1)*wp + s.W
		j.x = memplan.GetFloats(s.InC*dp*hp*wp + 16)
		padInput(x, j.x, s)
	}
	j.offs = getOffsets(s.InC * kd * s.K * s.K)
	tapOffsets(j.offs, s)
	j.nTiles, j.tileCols = gemmTiling(s.OutC, j.cols, workers)
	if workers == 1 || j.nTiles == 1 {
		j.Run(0, j.nTiles)
	} else {
		parallel.ForPooled(&gemmJobs, j.nTiles, workers, j)
	}
	putOffsets(j.offs)
	if s.K > 1 {
		memplan.PutFloats(j.x)
	}
}

// check panics unless s has positive dimensions and an odd K, and x, w,
// out and ep.Bias hold what a convolution of shape s reads and writes.
func (s ConvShape) check(x, w, out []float32, ep Epilogue) {
	dp, hp, wp := s.padded()
	switch {
	case s.InC <= 0 || s.H <= 0 || s.W <= 0 || s.OutC <= 0 || s.K <= 0 || s.D < 0:
		panic(fmt.Sprintf("kernels: ConvFused shape %+v has a non-positive dimension", s))
	case s.K%2 == 0:
		panic(fmt.Sprintf("kernels: ConvFused shape %+v has an even kernel", s))
	case s.InC*dp*hp*wp > math.MaxInt32-16:
		panic(fmt.Sprintf("kernels: ConvFused shape %+v is too large for 32-bit tap offsets", s))
	case len(x) < s.InLen() || len(w) < s.WeightLen() || len(out) < s.OutLen():
		panic(fmt.Sprintf("kernels: ConvFused %+v needs x, w, out of %d, %d, %d floats, got %d, %d, %d",
			s, s.InLen(), s.WeightLen(), s.OutLen(), len(x), len(w), len(out)))
	case ep.Bias != nil && len(ep.Bias) < s.OutC:
		panic(fmt.Sprintf("kernels: ConvFused %+v needs %d biases, got %d", s, s.OutC, len(ep.Bias)))
	}
}

// gemmJob is one convolution's tile loop. Split across workers it goes
// to the pool through parallel.ForPooled rather than as a closure, so
// the split allocates nothing.
type gemmJob struct {
	x, w, out []float32 // x: the padded input (the input itself for K = 1)
	offs      []int32   // tapOffsets
	s         ConvShape
	cols      int // GEMM columns: padded-row space for K > 1
	outCols   int // output pixels per channel
	nTiles    int
	tileCols  int // scratch row stride
	ep        Epilogue
	avx       bool // useAVX, read once on the caller's goroutine
}

var (
	gemmJobs sync.Pool // of *gemmJob
	zeroBias [4]float32
)

// offsetTables recycles tap-offset tables. It is a locked free list
// rather than a sync.Pool so a warm convolution allocates nothing
// under the race detector too, where a sync.Pool drops items on
// purpose; it keeps at most one table per concurrent caller.
var offsetTables struct {
	sync.Mutex
	free [][]int32
}

// getOffsets returns an r-entry table, recycled when one is free.
func getOffsets(r int) []int32 {
	offsetTables.Lock()
	var t []int32
	if n := len(offsetTables.free); n > 0 {
		t = offsetTables.free[n-1]
		offsetTables.free = offsetTables.free[:n-1]
	}
	offsetTables.Unlock()
	if cap(t) < r {
		t = make([]int32, r)
	}
	return t[:r]
}

// putOffsets returns a table from getOffsets.
func putOffsets(t []int32) {
	offsetTables.Lock()
	offsetTables.free = append(offsetTables.free, t)
	offsetTables.Unlock()
}

// Run multiplies the column tiles [lo, hi) with the epilogue fused: the
// bias seeds each output element's accumulator and the activation runs
// on the accumulators before they are stored. A 1×1 (or 1³) layer's
// columns are its output pixels, so its tiles are written straight
// into out. Otherwise a tile goes to a per-worker OutC × tileCols
// scratch drawn from the global memory pool (not zeroed on loan:
// multiply writes every column compact reads), and compact copies its
// output pixels out.
func (j *gemmJob) Run(lo, hi int) {
	var scratch []float32
	if j.s.K > 1 {
		scratch = memplan.GetFloats(j.s.OutC * j.tileCols)
	}
	for t := lo; t < hi; t++ {
		q0, q1 := gemmTile(t, j.nTiles, j.cols)
		if scratch == nil {
			j.multiply(j.out[q0:], j.outCols, q0, q1)
			continue
		}
		j.multiply(scratch, j.tileCols, q0, q1)
		j.compact(scratch, q0, q1)
	}
	if scratch != nil {
		memplan.PutFloats(scratch)
	}
}

// multiply writes act(bias + w · panel) for columns [q0, q1) of every
// output channel co to dst[co·ds+q-q0]. With AVX the columns go in
// 16-column blocks, channels four at a time (gemmBlock) and the rest
// one at a time (gemmBlock1), all channels of a block before the next
// block so its input window stays in L1. A padded layer's last block
// may run past q1 — the slack after the padded input reads zeros and
// the scratch has room — but the unpadded input has no slack, so there
// gemmRow does the columns after the last whole block, as it does
// every column without AVX.
func (j *gemmJob) multiply(dst []float32, ds, q0, q1 int) {
	oc, r, ep := j.s.OutC, len(j.offs), j.ep
	n, x := q1-q0, j.x[q0:]
	blocked := 0
	if j.avx {
		blocked = n &^ 15
		if j.s.K > 1 {
			blocked = (n + 15) &^ 15
		}
	}
	if blocked > 0 {
		_ = x[int(j.offs[r-1])+blocked-1] // the highest offset is the last tap's
	}
	for q := 0; q < blocked; q += 16 {
		xq := x[q:]
		co := 0
		for ; co+4 <= oc; co += 4 {
			_ = dst[(co+3)*ds+q+15]
			bias := zeroBias[:]
			if ep.Bias != nil {
				bias = ep.Bias[co : co+4]
			}
			gemmBlock(dst[co*ds+q:], ds, xq, j.offs, j.w[co*r:(co+4)*r], bias, ep.Act, ep.Slope)
		}
		for ; co < oc; co++ {
			gemmBlock1(dst[co*ds+q:][:16], xq, j.offs, j.w[co*r:(co+1)*r], ep.bias(co), ep.Act, ep.Slope)
		}
	}
	if blocked >= n {
		return
	}
	for co := 0; co < oc; co++ {
		row := dst[co*ds+blocked : co*ds+n]
		gemmRow(j.w[co*r:(co+1)*r], x[blocked:], j.offs, row, ep.bias(co))
		if ep.Act {
			for k, v := range row {
				if v < 0 {
					row[k] = ep.Slope * v
				}
			}
		}
	}
}

// compact copies the output pixels among the padded-row columns
// [q0, q1) of scratch into out, dropping the 2·(K/2) columns that end
// each padded row (and, in a volume, the rows that end each padded
// plane), one output-row run at a time.
func (j *gemmJob) compact(scratch []float32, q0, q1 int) {
	s := j.s
	_, hp, wp := s.padded()
	oz, oy, ox := q0/(hp*wp), q0/wp%hp, q0%wp
	for q := q0; q < q1; {
		run := min(wp-ox, q1-q)
		if oy < s.H && ox < s.W {
			m := min(run, s.W-ox)
			o := (oz*s.H+oy)*s.W + ox
			for co := 0; co < s.OutC; co++ {
				copy(j.out[co*j.outCols+o:][:m], scratch[co*j.tileCols+q-q0:])
			}
		}
		q += run
		ox = 0
		if oy++; oy == hp {
			oy, oz = 0, oz+1
		}
	}
}

// FlipDeconvWeights rewrites stride-1 transposed-convolution weights
// from their (InC, OutC, K, K) layout into the spatially flipped
// (OutC, InC, K, K) layout the convolution paths consume. dst must hold
// s.OutC·s.InC·s.K·s.K values (only the channel counts and K of s are
// read). DeconvGEMM performs this transform per call into pooled
// scratch; the fused plan runs it once at warm time and caches the
// result.
func FlipDeconvWeights(w, dst []float32, s ConvShape) {
	kk := s.K * s.K
	for ci := 0; ci < s.InC; ci++ {
		for co := 0; co < s.OutC; co++ {
			src := w[(ci*s.OutC+co)*kk : (ci*s.OutC+co+1)*kk]
			d := dst[(co*s.InC+ci)*kk : (co*s.InC+ci+1)*kk]
			for i := 0; i < kk; i++ {
				d[i] = src[kk-1-i]
			}
		}
	}
}
