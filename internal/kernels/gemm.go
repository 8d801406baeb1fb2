package kernels

import "computecovid19/internal/memplan"

// The implicit GEMM restructures convolution the way cuDNN-class CPU/GPU
// backends do: each output pixel's receptive field is a column of a
// patch matrix, and the convolution becomes one dense matrix multiply
// (weights-as-rows × patches-as-columns). The patch matrix is never
// written out (implicit GEMM): the input is copied once into a
// zero-padded buffer, and patch row t — filter tap (ci, kz, ky, kx) —
// is that buffer read from the tap's offset, offs[t], on. The paper's
// optimization ideas appear here in their cache-hierarchy form:
//
//   - cache blocking: output pixels are processed in column tiles, one
//     or more per worker, each written to an OutC × tile scratch that
//     stays L2-resident until the tile is compacted into the output;
//   - PF analogue (§4.2.2): the padded input is the panel. Zero padding
//     is materialized once per layer instead of per tap, so every tap
//     of every column is one unconditional load at a fixed offset;
//   - LU analogue (§4.2.2): the micro-kernel runs the whole reduction
//     (channel × filter-tap) in one unrolled loop while keeping a
//     single in-order accumulator per output element, so the summation
//     order matches the naive kernels' (zero-padding taps contribute
//     exact float32 zeros);
//   - CU replication (the compute-unit factor of Tables 5 and 7):
//     register blocking. gemmBlock keeps 4 output channels × 16 columns
//     of accumulators in registers, so each input load feeds four
//     channels and each weight broadcast 16 columns;
//   - vectorization (the width factor): the columns are the vector
//     lanes, 8 wide in AVX where the CPU has it and 4 wide in SSE
//     (gemmRow) on any other amd64. Columns are independent sums, so
//     the lanes keep each element's reduction order and every output
//     bit; other architectures run gemmRow's Go loop.
//
// Work is distributed over column tiles, not output channels, so the
// GEMM parallelizes cleanly even for the decoder's single-channel
// final layer.

// gemmScratchFloats caps a worker's OutC × tile output scratch at 64 Ki
// float32s (256 KiB), so the tile is still in L2 when it is compacted.
const gemmScratchFloats = 1 << 16

// gemmTiling splits a convolution's cols columns into nTiles tiles of
// whole 16-column blocks (gemmTile) for workers ≥ 1 workers: one tile
// per worker, as long as each gets at least 64 columns, and more when
// a tile's OutC × tile scratch would pass gemmScratchFloats. tileCols
// is the widest tile, rounded up to whole blocks: the scratch row
// stride. Each output element's reduction runs in the same order
// whatever the tile, so tiling never changes a bit.
func gemmTiling(outC, cols, workers int) (nTiles, tileCols int) {
	blocks := (cols + 15) / 16
	capBlocks := max(4, gemmScratchFloats/(16*outC))
	nTiles = max(1, min(workers, blocks/4), (blocks+capBlocks-1)/capBlocks)
	return nTiles, 16 * ((blocks + nTiles - 1) / nTiles)
}

// gemmTile returns tile t's columns [q0, q1) of gemmTiling's split: the
// blocks are dealt out as evenly as they go, and only the last tile can
// end on a partial block.
func gemmTile(t, nTiles, cols int) (q0, q1 int) {
	blocks := (cols + 15) / 16
	return 16 * (t * blocks / nTiles), min(cols, 16*((t+1)*blocks/nTiles))
}

// DeconvGEMM computes a stride-1 "same" transposed convolution with
// weights in (InC, OutC, K, K) layout. For stride 1 a transposed
// convolution is exactly a convolution with the spatially flipped
// filter, so the weights are transformed into the (OutC, InC, K, K)
// flipped layout and ConvFused with the zero epilogue does the rest. It
// pays the flip on every call into pooled scratch; it is the transposed
// op of the graph and unwarmed eval forwards (ag.EvalConv2D). Warm inference goes
// through the fused execution plan, which runs FlipDeconvWeights once
// at plan-compile time and feeds the cached panel to ConvFused instead.
func DeconvGEMM(x, w, out []float32, s ConvShape, workers int) {
	// Pooled scratch; FlipDeconvWeights writes every element.
	wc := memplan.GetFloats(s.OutC * s.InC * s.K * s.K)
	FlipDeconvWeights(w, wc, s)
	ConvFused(x, wc, out, s, workers, Epilogue{})
	memplan.PutFloats(wc)
}

// padded returns the extents of the zero-padded input ConvFused reads:
// the depth, height and width each grown by K/2 on both sides (the
// depth only for a volumetric layer). A 1×1 layer pads nothing.
func (s ConvShape) padded() (dp, hp, wp int) {
	d, kd := s.depth()
	return d + kd - 1, s.H + s.K - 1, s.W + s.K - 1
}

// padInput writes x into xp zero-padded to s.padded() per input channel
// and zeroes the rest of xp, the slack the last column block reads.
// Every element of xp is written.
func padInput(x, xp []float32, s ConvShape) {
	d, _ := s.depth()
	dp, hp, wp := s.padded()
	p, h, wd := s.K/2, s.H, s.W
	edge := (dp - d) / 2 * hp * wp // padding planes on each side
	i := 0
	for ci := 0; ci < s.InC; ci++ {
		clear(xp[i : i+edge])
		i += edge
		for z := 0; z < d; z++ {
			clear(xp[i : i+p*wp])
			i += p * wp
			for y := 0; y < h; y++ {
				row := x[((ci*d+z)*h+y)*wd:][:wd]
				clear(xp[i : i+p])
				copy(xp[i+p:i+p+wd], row)
				clear(xp[i+p+wd : i+wp])
				i += wp
			}
			clear(xp[i : i+p*wp])
			i += p * wp
		}
		clear(xp[i : i+edge])
		i += edge
	}
	clear(xp[i:])
}

// tapOffsets writes offs[t] for every filter tap t = ((ci·KD+kz)·K+ky)·K+kx
// (KD = 1 and kz = 0 for a 2D layer) — the reduction order of every
// kernel — as the distance from an output pixel's column to the element
// the tap reads, in the padded input of padInput. For K = 1 nothing is
// padded and offs[ci] = ci·cols: the input itself is the panel.
func tapOffsets(offs []int32, s ConvShape) {
	_, kd := s.depth()
	dp, hp, wp := s.padded()
	plane := dp * hp * wp
	t := 0
	for ci := 0; ci < s.InC; ci++ {
		for kz := 0; kz < kd; kz++ {
			for ky := 0; ky < s.K; ky++ {
				for kx := 0; kx < s.K; kx++ {
					offs[t] = int32(ci*plane + (kz*hp+ky)*wp + kx)
					t++
				}
			}
		}
	}
}

// gemmRow computes dst = bias + wrow · panel for one output channel
// over one column run, panel row t being x[offs[t]:]: dst[j] = bias +
// Σ_t wrow[t]·x[offs[t]+j]. The reduction is unrolled ×4 (the LU rung,
// applied along the channel × tap dimension); each output element
// keeps a single accumulator updated in ascending-t order, matching the
// naive kernels' summation order. The zero epilogue passes bias 0, an
// exact zero seed; a folded layer passes its bias, saving the separate
// bias pass.
//
// On amd64 gemmQuad and gemmTap (gemm_amd64.s) do the first n &^ 3
// columns four at a time and the Go loops below finish the n mod 4
// tail; elsewhere the Go loops do every column. Lane for lane the
// vector step is the scalar multiply-then-add in the same order, so
// both give the same bits.
func gemmRow(wrow, x []float32, offs []int32, dst []float32, bias float32) {
	for j := range dst {
		dst[j] = bias
	}
	n := len(dst)
	r := len(wrow)
	ri := 0
	for ; ri+4 <= r; ri += 4 {
		a0, a1, a2, a3 := wrow[ri], wrow[ri+1], wrow[ri+2], wrow[ri+3]
		p0 := x[offs[ri]:][:n]
		p1 := x[offs[ri+1]:][:n]
		p2 := x[offs[ri+2]:][:n]
		p3 := x[offs[ri+3]:][:n]
		for j := gemmQuad(dst, p0, p1, p2, p3, a0, a1, a2, a3); j < n; j++ {
			acc := dst[j] + a0*p0[j]
			acc += a1 * p1[j]
			acc += a2 * p2[j]
			acc += a3 * p3[j]
			dst[j] = acc
		}
	}
	for ; ri < r; ri++ {
		a := wrow[ri]
		p := x[offs[ri]:][:n]
		for j := gemmTap(dst, p, a); j < n; j++ {
			dst[j] += a * p[j]
		}
	}
}
