package kernels

import "computecovid19/internal/memplan"

// The gemm rung restructures convolution the way cuDNN-class CPU/GPU
// backends do: im2col turns each output pixel's receptive field into a
// column of a patch matrix, and the convolution becomes one dense
// matrix multiply (weights-as-rows × patches-as-columns). Three of the
// paper's optimization ideas appear here in their cache-hierarchy form:
//
//   - cache blocking: output pixels are processed in column tiles sized
//     so the staged patch panel stays L2-resident per worker;
//   - PF analogue (§4.2.2): each tile's input loads are staged into the
//     contiguous panel *before* the multiply sweep, so the hot loop
//     streams linear memory and never touches scattered input addresses
//     (tile-level software pipelining of the loads);
//   - LU analogue (§4.2.2): the micro-kernel unrolls the reduction
//     (channel × filter-tap) dimension by four while keeping a single
//     in-order accumulator per output element, so the summation order
//     matches the naive kernels' and results stay within the oracle
//     tolerance (zero-padding taps contribute exact float32 zeros).
//
// Work is distributed over column tiles, not output channels, so the
// rung parallelizes cleanly even for the decoder's single-channel
// final layer.

// gemmPanelFloats caps the staged panel at 256 Ki float32s (1 MiB), a
// comfortable fit in a per-core L2 alongside the weight rows.
const gemmPanelFloats = 1 << 18

// gemmTiling sizes a convolution's column tiles for workers ≥ 1
// workers: as wide as the panel cap allows (gemmPanelFloats / r
// columns), but no wider than an even share of the columns per worker,
// and never under 64 columns. The share cap is what lets a kernel split
// reach every worker at serving resolutions, where the panel cap alone
// leaves the 7×7 stem, every 1×1 layer and every layer at 32×32 or
// below as one tile on one core. Each output element's reduction runs
// in the same order whatever the tile, so tiling never changes a bit.
func gemmTiling(r, cols, workers int) (tile, nTiles int) {
	tile = max(64, min(gemmPanelFloats/r, (cols+workers-1)/workers))
	return tile, (cols + tile - 1) / tile
}

// convGEMM computes a stride-1 "same" convolution with weights in
// (OutC, InC, K, K) layout via tiled im2col + GEMM: ConvFused with the
// zero epilogue, which adds nothing.
func convGEMM(x, w, out []float32, s ConvShape, workers int) {
	ConvFused(x, w, out, s, workers, Epilogue{})
}

// deconvGEMM computes a stride-1 "same" transposed convolution with
// weights in (InC, OutC, K, K) layout. For stride 1 a transposed
// convolution is exactly a convolution with the spatially flipped
// filter, so the weights are transformed into the (OutC, InC, K, K)
// flipped layout and the tiled GEMM path does the rest. This is the
// cold-path fallback: it pays the flip on every call into pooled
// scratch. Warm inference goes through the fused execution plan, which
// runs FlipDeconvWeights once at plan-compile time and feeds the cached
// panel to ConvFused instead.
func deconvGEMM(x, w, out []float32, s ConvShape, workers int) {
	// Pooled scratch; FlipDeconvWeights writes every element.
	wc := memplan.GetFloats(s.OutC * s.InC * s.K * s.K)
	FlipDeconvWeights(w, wc, s)
	convGEMM(x, wc, out, s, workers)
	memplan.PutFloats(wc)
}

// stagePatchTile writes the im2col panel for output pixels
// [c0, c0+n): row ((ci·KD+kz)·K+ky)·K+kx of the panel holds, for each
// output pixel, the input element that filter tap (ci, kz, ky, kx)
// reads, with zero padding materialized (KD = 1 and kz = 0 for a 2D
// layer). A column indexes the output as (oz, oy, ox); a row of the
// panel is staged one output image row (run) at a time, stepping
// (oz, oy) from run to run rather than dividing per run. Interior runs
// are bulk copy()s; only the borders go element-wise (through
// zeroFill).
func stagePatchTile(x, panel []float32, s ConvShape, c0, n, pstride int) {
	h, wd, k := s.H, s.W, s.K
	d, kd := s.depth()
	pad, padZ := k/2, kd/2
	oz0, oy0, ox0 := c0/(h*wd), c0/wd%h, c0%wd
	row := 0
	for ci := 0; ci < s.InC; ci++ {
		xbase := ci * d * h * wd
		for kz := 0; kz < kd; kz++ {
			dz := kz - padZ
			for ky := 0; ky < k; ky++ {
				dy := ky - pad
				for kx := 0; kx < k; kx++ {
					dx := kx - pad
					dst := panel[row*pstride : row*pstride+n]
					row++
					oz, oy, ox := oz0, oy0, ox0
					for j := 0; j < n; {
						run := min(wd-ox, n-j) // output pixels left on this image row
						seg := dst[j : j+run]
						// Valid input columns: 0 ≤ ox′+dx < wd for
						// ox′ ∈ [ox, ox+run); the clipped edges are zeros.
						lo, hi := max(ox, -dx), min(ox+run, wd-dx)
						iz, iy := oz+dz, oy+dy
						if iz < 0 || iz >= d || iy < 0 || iy >= h || hi <= lo {
							// All padding. (Skipping the copy matters when
							// hi <= lo — even an empty src[lo+dx:hi+dx]
							// would be out of bounds on the volume's last
							// row.)
							zeroFill(seg)
						} else {
							src := x[xbase+(iz*h+iy)*wd:]
							zeroFill(seg[:lo-ox])
							copy(seg[lo-ox:hi-ox], src[lo+dx:hi+dx])
							zeroFill(seg[hi-ox:])
						}
						j += run
						ox = 0
						if oy++; oy == h {
							oy, oz = 0, oz+1
						}
					}
				}
			}
		}
	}
}

func zeroFill(s []float32) {
	for i := range s {
		s[i] = 0
	}
}

// gemmRow computes dst = bias + wrow · panel for one output channel
// over one column tile: dst[j] = bias + Σ_r wrow[r]·panel[r][j]. The
// reduction is unrolled ×4 (the LU rung, applied along the channel ×
// tap dimension); each output element keeps a single accumulator
// updated in ascending-r order, matching the naive kernels' summation
// order. The plain gemm rung passes bias 0, which seeds the
// accumulator with the same exact zero as before; the fused rung seeds
// it with the folded bias, saving the separate bias pass.
func gemmRow(wrow, panel, dst []float32, pstride int, bias float32) {
	for j := range dst {
		dst[j] = bias
	}
	n := len(dst)
	r := len(wrow)
	ri := 0
	for ; ri+4 <= r; ri += 4 {
		a0, a1, a2, a3 := wrow[ri], wrow[ri+1], wrow[ri+2], wrow[ri+3]
		p0 := panel[ri*pstride : ri*pstride+n]
		p1 := panel[(ri+1)*pstride : (ri+1)*pstride+n]
		p2 := panel[(ri+2)*pstride : (ri+2)*pstride+n]
		p3 := panel[(ri+3)*pstride : (ri+3)*pstride+n]
		for j := 0; j < n; j++ {
			acc := dst[j] + a0*p0[j]
			acc += a1 * p1[j]
			acc += a2 * p2[j]
			acc += a3 * p3[j]
			dst[j] = acc
		}
	}
	for ; ri < r; ri++ {
		a := wrow[ri]
		p := panel[ri*pstride : ri*pstride+n]
		for j := 0; j < n; j++ {
			dst[j] += a * p[j]
		}
	}
}
