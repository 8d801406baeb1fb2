package kernels

import (
	"sync"

	"computecovid19/internal/memplan"
	"computecovid19/internal/parallel"
)

// The fused rung keeps the gemm rung's tiled im2col multiply and adds a
// per-output-channel epilogue — bias add plus optional LeakyReLU —
// applied to each output tile in the same loop that writes it, while
// the tile is still cache-hot. On the unfused path every layer pays two
// extra full feature-map passes (BatchNorm read+write, activation
// read+write) after the convolution; with inference-mode BatchNorm
// folded into the weights at plan-compile time (nn.FoldConvBN), the
// whole conv→BN→LeakyReLU sequence becomes one ConvFused call that
// touches the output exactly once. Transposed convolutions additionally
// stop re-flipping their weights per call: FlipDeconvWeights runs once
// at warm time and the flipped panel is cached in the plan.

// Epilogue is the fused per-output-channel post-processing of ConvFused:
// out[c][·] = act(Σ + Bias[c]), with act = LeakyReLU(Slope) when Act is
// set. A nil Bias adds nothing; the zero Epilogue makes ConvFused
// exactly convGEMM.
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

// ConvFused computes a stride-1 "same" convolution (weights OutC, InC,
// K, K — or OutC, InC, K, K, K when s.D > 0) via the tiled GEMM path
// with ep applied tile-locally, sharing the column tiles (gemmTiling)
// among workers workers (0: the default count). For transposed
// convolutions pass weights pre-flipped with FlipDeconvWeights — a
// stride-1 deconvolution is exactly a convolution with the spatially
// flipped filter.
func ConvFused(x, w, out []float32, s ConvShape, workers int, ep Epilogue) {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	d, kd := s.depth()
	r := s.InC * kd * s.K * s.K
	cols := d * s.H * s.W
	tile, nTiles := gemmTiling(r, cols, workers)
	j := gemmJob{x: x, w: w, out: out, s: s, r: r, cols: cols, tile: tile, ep: ep}
	if workers == 1 || nTiles == 1 {
		j.Run(0, nTiles)
		return
	}
	parallel.ForPooled(&gemmJobs, nTiles, workers, j)
}

// gemmJob is one convolution's tile loop. Split across workers it goes
// to the pool through parallel.ForPooled rather than as a closure, so
// the split allocates nothing.
type gemmJob struct {
	x, w, out     []float32
	s             ConvShape
	r, cols, tile int
	ep            Epilogue
}

var gemmJobs sync.Pool // of *gemmJob

// Run stages and multiplies the column tiles [lo, hi) with the epilogue
// fused into the tile sweep: the bias seeds each output element's
// accumulator (one write saved per element) and the activation reruns
// over the freshly written — still L1-resident — tile row instead of a
// whole-tensor pass later. The per-worker panel is drawn from the
// global memory pool and not zeroed on loan: stagePatchTile fully
// writes [0, n) of every row it stages and gemmRow reads exactly that
// range, so no stale element is ever read. A 1×1 (or 1³) layer stages
// nothing: its patch row ci is input channel ci, so the panel is the
// input itself, read from column c0 with a row stride of cols.
func (j *gemmJob) Run(lo, hi int) {
	s, r, cols, tile, ep := j.s, j.r, j.cols, j.tile, j.ep
	var staged []float32
	pstride := cols
	if s.K > 1 {
		staged = memplan.GetFloats(r * tile)
		pstride = tile
	}
	for t := lo; t < hi; t++ {
		c0 := t * tile
		n := min(tile, cols-c0)
		panel := j.x[c0:]
		if staged != nil {
			stagePatchTile(j.x, staged, s, c0, n, tile)
			panel = staged
		}
		for co := 0; co < s.OutC; co++ {
			var bias float32
			if ep.Bias != nil {
				bias = ep.Bias[co]
			}
			dst := j.out[co*cols+c0 : co*cols+c0+n]
			gemmRow(j.w[co*r:(co+1)*r], panel, dst, pstride, bias)
			if ep.Act {
				slope := ep.Slope
				for k, v := range dst {
					if v < 0 {
						dst[k] = slope * v
					}
				}
			}
		}
	}
	if staged != nil {
		memplan.PutFloats(staged)
	}
}

// FlipDeconvWeights rewrites stride-1 transposed-convolution weights
// from their (InC, OutC, K, K) layout into the spatially flipped
// (OutC, InC, K, K) layout the convolution paths consume. dst must hold
// s.OutC·s.InC·s.K·s.K values (only the channel counts and K of s are
// read). deconvGEMM performs this transform per call into pooled
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

// BNActInfer applies a pre-folded inference BatchNorm and LeakyReLU in
// one pass: out[c][i] = lrelu(scale[c]·x[c][i] + shift[c]). x and out
// may alias (pure elementwise map); hw is the per-channel plane size.
// The unfused path pays two full passes here (BatchNormInfer, then the
// activation); positions where a BatchNorm cannot be folded into a
// neighbouring convolution (DDnet's dense-layer BN1, whose input is a
// concat consumed by other readers) use this instead.
func BNActInfer(x, out []float32, c, hw int, scale, shift []float32, slope float32, workers int) {
	if workers <= 0 {
		workers = parallel.DefaultWorkers()
	}
	j := bnActJob{x: x, out: out, hw: hw, scale: scale, shift: shift, slope: slope}
	if workers == 1 || c == 1 {
		j.Run(0, c)
		return
	}
	parallel.ForPooled(&bnActJobs, c, workers, j)
}

// bnActJob is BNActInfer's channel loop, dispatched like gemmJob.
type bnActJob struct {
	x, out       []float32
	hw           int
	scale, shift []float32
	slope        float32
}

var bnActJobs sync.Pool // of *bnActJob

// Run maps channels [lo, hi).
func (j *bnActJob) Run(lo, hi int) {
	x, out, hw, slope := j.x, j.out, j.hw, j.slope
	for ci := lo; ci < hi; ci++ {
		s, t := j.scale[ci], j.shift[ci]
		base := ci * hw
		for i := base; i < base+hw; i++ {
			v := s*x[i] + t
			if v < 0 {
				v = slope * v
			}
			out[i] = v
		}
	}
}
