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
// no pass over memory at all. The halo-padded input the GEMM reads is
// the panel, resident because its producer wrote it so; the register
// blocks of 6, 4 or 1 channels × 16 columns (gemmBlock6, gemmBlock,
// gemmBlock1, in the channel plan of gemmJob.block) are the
// compute-unit replication, and the AVX width is the vector width
// (gemm.go). No block runs a lane it does not need: a row narrower
// than 16 columns shares its blocks with the rows after it
// (gemmJob.span). Each output is stored once, in the layout its reader
// takes. Unfused, every layer would pay two extra full feature-map
// passes (BatchNorm read+write, activation read+write) after the
// convolution; with inference-mode BatchNorm folded into the weights at
// plan-compile time (nn.Trunk.Plan), the whole conv→BN→LeakyReLU
// sequence is one ConvFused call that touches the output exactly once.
// Transposed convolutions additionally stop re-flipping their weights
// per call: FlipDeconvWeights runs once at plan-compile time and the
// flipped panel is cached in the plan.

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
// ep applied in registers, sharing the column tiles (gemmTiles) among
// workers workers (0: the default count), in the layouts s describes
// (out's halo is left as it is). For transposed convolutions pass
// weights pre-flipped with FlipDeconvWeights — a stride-1
// deconvolution is exactly a convolution with the spatially flipped
// filter. A shape or operand that does not fit panics here, on the
// caller's goroutine, before any worker or assembly loop indexes it.
func ConvFused(x, w, out []float32, s ConvShape, workers int, ep Epilogue) {
	s.check(x, w, out, ep)
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	d, kd := s.depth()
	do, ho, wo := s.grid(s.Halo)
	j := gemmJob{x: x, w: w, out: out, s: s, cols: d * s.H * s.W, ds: do * ho * wo,
		rows: s.K > 1 || s.Halo > 0, ep: ep, avx: useAVX, six: s.OutC >= 6 && s.OutC%4 >= 2}
	j.offs = getOffsets(s.InC * kd * s.K * s.K)
	tapOffsets(j.offs, s)
	j.nTiles = gemmTiles(j.cols, workers)
	if workers == 1 || j.nTiles == 1 {
		j.Run(0, j.nTiles)
	} else {
		parallel.ForPooled(&gemmJobs, j.nTiles, workers, j)
	}
	putOffsets(j.offs)
}

// ConvCompact is ConvFused on a compact input, which it halo-pads into
// pooled scratch first: the graph ops' convolution.
func ConvCompact(x, w, out []float32, s ConvShape, workers int, ep Epilogue) {
	if s.K == 1 {
		ConvFused(x, w, out, s, workers, ep)
		return
	}
	xp := memplan.GetFloats(s.padLen())
	Pad(x[:s.InLen()], xp, s)
	ConvFused(xp, w, out, s, workers, ep)
	memplan.PutFloats(xp)
}

// padLen returns the length of the halo-padded input ConvFused reads.
func (s ConvShape) padLen() int {
	d, h, w := s.grid(s.K / 2)
	return s.InC * d * h * w
}

// check panics unless s has positive dimensions, an odd K and a
// non-negative Halo, and x, w, out and ep.Bias hold what a convolution
// of shape s reads and writes.
func (s ConvShape) check(x, w, out []float32, ep Epilogue) {
	do, ho, wo := s.grid(s.Halo)
	switch {
	case s.InC <= 0 || s.H <= 0 || s.W <= 0 || s.OutC <= 0 || s.K <= 0 || s.D < 0 || s.Halo < 0:
		panic(fmt.Sprintf("kernels: ConvFused shape %+v has a non-positive dimension", s))
	case s.K%2 == 0:
		panic(fmt.Sprintf("kernels: ConvFused shape %+v has an even kernel", s))
	case s.padLen() > math.MaxInt32:
		panic(fmt.Sprintf("kernels: ConvFused shape %+v is too large for 32-bit tap offsets", s))
	case len(x) < s.padLen() || len(w) < s.WeightLen() || len(out) < s.OutC*do*ho*wo:
		panic(fmt.Sprintf("kernels: ConvFused %+v needs x, w, out of %d, %d, %d floats, got %d, %d, %d",
			s, s.padLen(), s.WeightLen(), s.OutC*do*ho*wo, len(x), len(w), len(out)))
	case ep.Bias != nil && len(ep.Bias) < s.OutC:
		panic(fmt.Sprintf("kernels: ConvFused %+v needs %d biases, got %d", s, s.OutC, len(ep.Bias)))
	}
}

// gemmJob is one convolution's tile loop. Split across workers it goes
// to the pool through parallel.ForPooled rather than as a closure, so
// the split allocates nothing.
type gemmJob struct {
	x, w, out []float32 // x: halo-padded for K > 1
	offs      []int32   // tapOffsets
	s         ConvShape
	cols      int  // output pixels per channel
	ds        int  // output channel stride: a plane of s.grid(s.Halo)
	rows      bool // a halo on either side splits runs at output rows
	nTiles    int
	ep        Epilogue
	avx       bool // useAVX, read once on the caller's goroutine
	six       bool // the channel plan starts with a 6-channel block
}

var (
	gemmJobs sync.Pool // of *gemmJob
	zeroBias [6]float32
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

// Run multiplies the column tiles [lo, hi) with the epilogue fused
// straight into out: the bias seeds each output element's accumulator
// and the activation runs on the accumulators before they are stored.
func (j *gemmJob) Run(lo, hi int) {
	for t := lo; t < hi; t++ {
		j.multiply(gemmTile(t, j.nTiles, j.cols))
	}
}

// multiply writes act(bias + w · panel) for output pixels [q0, q1) of
// every output channel, in runs contiguous in input and output: the
// rest of a row for a K > 1 layer or a padded output, else the whole
// tile. With AVX a run goes in 16-column blocks, all channels of a
// block before the next so its input window stays in L1, each written
// straight into out. A run shorter than 16 columns — a row tail, or a
// whole row narrower than 16 — goes to span, whose block goes on into
// the following rows. gemmRow does every run without AVX, and with it
// only a layer whose x is too short for any block. All give the same
// bits.
func (j *gemmJob) multiply(q0, q1 int) {
	s, last := j.s, int(j.offs[len(j.offs)-1]) // the highest offset is the last tap's
	for q := q0; q < q1; {
		n := q1 - q
		if j.rows {
			n = min(n, s.W-q%s.W)
		}
		xi, oi := s.at(q, s.K/2, 0), s.at(q, s.Halo, s.Halo)
		if j.avx {
			for ; n >= 16; n -= 16 {
				j.block(j.out[oi:], j.ds, j.x[xi:xi+last+16], 0, s.OutC)
				q, xi, oi = q+16, xi+16, oi+16
			}
			if n == 0 {
				continue
			}
			if last+16 <= len(j.x) {
				q = j.span(q, q1, xi, oi)
				continue
			}
		}
		r, ep := len(j.offs), j.ep
		for co := 0; co < s.OutC; co++ {
			row := j.out[co*j.ds+oi:][:n]
			gemmRow(j.w[co*r:(co+1)*r], j.x[xi:], j.offs, row, ep.bias(co))
			if ep.Act {
				for k, v := range row {
					if v < 0 {
						row[k] = ep.Slope * v
					}
				}
			}
		}
		q += n
	}
}

// span runs one 16-column block from output pixel q, whose window
// corner is x[xi], into a stack tile. Its lanes are consecutive window
// corners in the padded input: past the end of q's row they run on
// through the row's halo columns (and, at the end of a plane, its halo
// rows) into the following rows, so a row narrower than 16 columns
// shares the block with the rows after it. Near the end of x, where
// those lanes would read past it, the block starts as many corners
// before q as it must instead (the last pixel's window ends at the end
// of the padded input, so it always fits). The lanes whose corner is
// an interior pixel from q to q1 are copied out, row by row, to their
// cells from out[oi] on; the halo lanes, and those before q, are
// dropped. span returns the first pixel it did not write.
func (j *gemmJob) span(q, q1, xi, oi int) int {
	s, p := j.s, j.s.K/2
	wp, wo := s.W+2*p, s.W+2*s.Halo // the input's and the output's row pitch
	back := max(0, xi+int(j.offs[len(j.offs)-1])+16-len(j.x))
	var cuts [16]struct{ lane, oi, n int } // each interior row piece
	nc := 0
	for lane := back; lane < 16 && q < q1; nc++ {
		n := min(16-lane, q1-q, s.W-q%s.W)
		cuts[nc].lane, cuts[nc].oi, cuts[nc].n = lane, oi, n
		q, lane, oi = q+n, lane+n, oi+n
		if q%s.W == 0 { // skip the halo columns, and at a plane's end its halo rows
			lane, oi = lane+2*p, oi+2*s.Halo
			if q/s.W%s.H == 0 {
				lane, oi = lane+2*p*wp, oi+2*s.Halo*wo
			}
		}
	}
	var tile [6 * 16]float32
	x := j.x[xi-back:]
	for co := 0; co < s.OutC; {
		c1 := min(co+4, s.OutC) // the tile takes up to four channels, or the 6-block
		if co == 0 && j.six {
			c1 = 6
		}
		j.block(tile[:], 16, x, co, c1)
		for c := co; c < c1; c++ {
			for _, cut := range cuts[:nc] {
				copy(j.out[c*j.ds+cut.oi:][:cut.n], tile[(c-co)*16+cut.lane:])
			}
		}
		co = c1
	}
	return q
}

// block computes output channels [co0, co1) of one 16-column block into
// dst, channel co at dst[(co−co0)·ds:], by the channel plan, which
// wastes no kernel on a lone pair or triple: a count ≡ 2 or 3 (mod 4)
// of at least six (j.six) starts with one 6-channel block (gemmBlock6),
// then come 4-channel blocks (gemmBlock) while four remain, then one
// channel at a time (gemmBlock1). So 6 → 6, 10 → 6+4, 11 → 6+4+1,
// 8 → 4+4 and 9 → 4+4+1. co0 is 0 or past the 6-block.
func (j *gemmJob) block(dst []float32, ds int, x []float32, co0, co1 int) {
	r, ep := len(j.offs), j.ep
	co := co0
	if co == 0 && j.six {
		_ = dst[5*ds+15]
		gemmBlock6(dst, ds, x, j.offs, j.w[:6*r], j.biases(0, 6), ep.Act, ep.Slope)
		co = 6
	}
	for ; co+4 <= co1; co += 4 {
		_ = dst[(co-co0+3)*ds+15]
		gemmBlock(dst[(co-co0)*ds:], ds, x, j.offs, j.w[co*r:(co+4)*r], j.biases(co, 4), ep.Act, ep.Slope)
	}
	for ; co < co1; co++ {
		gemmBlock1(dst[(co-co0)*ds:][:16], x, j.offs, j.w[co*r:(co+1)*r], ep.bias(co), ep.Act, ep.Slope)
	}
}

// biases returns the biases of output channels [co, co+n), zeros without
// any.
func (j *gemmJob) biases(co, n int) []float32 {
	if j.ep.Bias == nil {
		return zeroBias[:n]
	}
	return j.ep.Bias[co : co+n]
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
