package kernels

import "computecovid19/internal/memplan"

// The implicit GEMM restructures convolution the way cuDNN-class CPU/GPU
// backends do: each output pixel's receptive field is a column of a
// patch matrix, and the convolution becomes one dense matrix multiply
// (weights-as-rows × patches-as-columns). The patch matrix is never
// written out (implicit GEMM): a K > 1 layer's input arrives
// halo-padded by K/2, and patch row t — filter tap (ci, kz, ky, kx) —
// is that buffer read from the tap's offset, offs[t], on. The paper's
// optimization ideas appear here in their cache-hierarchy form:
//
//   - cache blocking: output pixels are processed in column tiles, one
//     or more per worker, row by row, written straight into the output;
//   - PF analogue (§4.2.2): the padded input is the panel, resident in
//     the layout the kernel reads: its producer wrote it there and its
//     halo was zeroed once, so every tap of every column is one
//     unconditional load at a fixed offset;
//   - LU analogue (§4.2.2): the micro-kernel runs the whole reduction
//     (channel × filter-tap) in one unrolled loop while keeping a
//     single in-order accumulator per output element, so the summation
//     order matches the naive kernels' (zero-padding taps contribute
//     exact float32 zeros);
//   - CU replication (the compute-unit factor of Tables 5 and 7):
//     register blocking. gemmBlock keeps 4 output channels × 16 columns
//     of accumulators in registers (gemmBlock6 six), so each input load
//     feeds four (six) channels and each weight broadcast 16 columns;
//     their ZMM twins (gemmBlockZ, gemmBlock6Z) keep 32 columns, so each
//     broadcast feeds 32;
//   - vectorization (the width factor): the columns are the vector
//     lanes, 16 wide in AVX-512 and 8 wide in AVX where the CPU has
//     them, and 4 wide in SSE (gemmRow) on any other amd64. Columns are
//     independent sums and every width runs the same multiply, then
//     add, per tap (no fused multiply-add), so the lanes keep each
//     element's reduction order and every output bit; other
//     architectures run gemmRow's Go loop.
//
// Work is distributed over column tiles, not output channels, so the
// GEMM parallelizes cleanly even for the decoder's single-channel
// final layer.

// gemmTiles splits a convolution's cols output pixels into tiles of
// whole 16-column blocks (gemmTile) for workers ≥ 1 workers: one tile
// per worker, as long as each gets at least 64 columns. Each output
// element's reduction runs in the same order whatever the tile, so
// tiling never changes a bit.
func gemmTiles(cols, workers int) int {
	return max(1, min(workers, (cols+15)/16/4))
}

// gemmTile returns tile t's columns [q0, q1) of gemmTiles' split: the
// blocks are dealt out as evenly as they go, and only the last tile can
// end on a partial block.
func gemmTile(t, nTiles, cols int) (q0, q1 int) {
	blocks := (cols + 15) / 16
	return 16 * (t * blocks / nTiles), min(cols, 16*((t+1)*blocks/nTiles))
}

// DeconvGEMM computes a stride-1 "same" transposed convolution with
// weights in (InC, OutC, K, K) layout on a compact x. For stride 1 a
// transposed convolution is exactly a convolution with the spatially
// flipped filter, so the weights are transformed into the (OutC, InC,
// K, K) flipped layout and ConvCompact with the zero epilogue does the
// rest. It pays the flip on every call into pooled scratch; only the
// graph op (ag.ConvTranspose2D) calls it. Inference goes through the
// fused execution plan, which runs FlipDeconvWeights once at
// plan-compile time and feeds the cached panel to ConvFused instead.
func DeconvGEMM(x, w, out []float32, s ConvShape, workers int) {
	// Pooled scratch; FlipDeconvWeights writes every element.
	wc := memplan.GetFloats(s.OutC * s.InC * s.K * s.K)
	FlipDeconvWeights(w, wc, s)
	ConvCompact(x, wc, out, s, workers, Epilogue{})
	memplan.PutFloats(wc)
}

// grid returns s's plane extents padded by p on each side (the depth
// too in a volume): the input's are grid(K/2), the output's grid(Halo).
func (s ConvShape) grid(p int) (d, h, w int) {
	d, _ = s.depth()
	if s.D > 0 {
		d += 2 * p
	}
	return d, s.H + 2*p, s.W + 2*p
}

// at returns the index in a grid(p) plane of output pixel q moved o
// cells along each axis: o = 0 gives its window's corner in the input,
// o = p its cell in a padded output.
func (s ConvShape) at(q, p, o int) int {
	_, hp, wp := s.grid(p)
	z, y, x := q/(s.H*s.W), q/s.W%s.H, q%s.W
	if s.D > 0 {
		z += o
	}
	return (z*hp+y+o)*wp + x + o
}

// Pad writes the s.InC channels of a compact x into the interior of
// xp, the halo-padded input a convolution of shape s reads, and zeroes
// the halo; with a nil x it zeroes only the halo.
func Pad(x, xp []float32, s ConvShape) {
	d, _ := s.depth()
	dp, hp, wp := s.grid(s.K / 2)
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
				row := xp[i : i+wp]
				for k := 0; k < p; k++ { // a loop: too short for clear's call
					row[k], row[wp-1-k] = 0, 0
				}
				if x != nil {
					copy(row[p:p+wd], x[((ci*d+z)*h+y)*wd:])
				}
				i += wp
			}
			clear(xp[i : i+p*wp])
			i += p * wp
		}
		clear(xp[i : i+edge])
		i += edge
	}
}

// tapOffsets writes offs[t] for every filter tap t = ((ci·KD+kz)·K+ky)·K+kx
// (KD = 1 and kz = 0 for a 2D layer) — the reduction order of every
// kernel — as the distance from the corner of an output pixel's window
// to the element the tap reads, in the halo-padded input. For K = 1
// nothing is padded and offs[ci] = ci·cols: the input itself is the
// panel.
func tapOffsets(offs []int32, s ConvShape) {
	_, kd := s.depth()
	dp, hp, wp := s.grid(s.K / 2)
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
