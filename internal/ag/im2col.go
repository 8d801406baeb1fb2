package ag

import (
	"computecovid19/internal/parallel"
	"computecovid19/internal/tensor"
)

// im2col-based convolution: the classical HPC restructuring that turns
// convolution into one large matrix multiply (the route cuDNN and most
// CPU BLAS backends take). The forward result is bit-identical in
// structure to Conv2D's direct loops but trades memory (the unrolled
// patch matrix) for locality: the inner loop becomes a dense dot product
// over contiguous rows.
//
// Conv2DFast is used by DDnet's forward pass at larger images where the
// patch matrix pays for itself; the direct kernels remain the reference
// implementation and the backward path (weight/input gradients reuse the
// direct formulation, which is memory-lean).

// im2col unrolls x (C, H, W view into a batch element) into a matrix of
// shape (C·K·K, OH·OW), column j holding the receptive field of output
// pixel j.
func im2col(x []float32, c, h, w, k, stride, pad, oh, ow int, out []float32) {
	cols := oh * ow
	for ci := 0; ci < c; ci++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				row := ((ci*k + ky) * k) + kx
				dst := out[row*cols : (row+1)*cols]
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[oy*ow+ox] = 0
						}
						continue
					}
					srcRow := (ci*h + iy) * w
					for ox := 0; ox < ow; ox++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							dst[oy*ow+ox] = 0
						} else {
							dst[oy*ow+ox] = x[srcRow+ix]
						}
					}
				}
			}
		}
	}
}

// matmulNT computes C = A·B for A (m×kk) and B (kk×n), all row-major,
// parallelized over rows of A with a blocked inner loop.
func matmulNT(a, b, c []float32, m, kk, n, workers int) {
	parallel.ForEach(m, workers, func(i int) {
		ci := c[i*n : (i+1)*n]
		for j := range ci {
			ci[j] = 0
		}
		ai := a[i*kk : (i+1)*kk]
		for l := 0; l < kk; l++ {
			alv := ai[l]
			if alv == 0 {
				continue
			}
			bl := b[l*n : (l+1)*n]
			for j := 0; j < n; j++ {
				ci[j] += alv * bl[j]
			}
		}
	})
}

// sameConvShape reports whether the layer is a stride-1 "same"
// convolution with an odd square kernel — the family internal/kernels'
// optimization-ladder rungs cover (every DDnet layer qualifies).
func sameConvShape(kh, kw, stride, pad int) bool {
	return kh == kw && kh%2 == 1 && stride == 1 && pad == kh/2
}

// Conv2DFast is a drop-in replacement for Conv2D whose forward pass
// dispatches to the selected internal/kernels optimization-ladder rung
// (kernels.Default, normally the im2col + cache-blocked GEMM path) for
// stride-1 "same" odd-square-kernel layers, and otherwise uses the
// package-local im2col + matrix multiplication. Gradients are computed
// with the same formulas as Conv2D (the backward pass does not
// materialize the patch matrix).
func Conv2DFast(x, w, b *Value, cfg Conv2DConfig) *Value {
	n, cin, h, wd := x.T.Shape[0], x.T.Shape[1], x.T.Shape[2], x.T.Shape[3]
	cout, _, kh, kw := w.T.Shape[0], w.T.Shape[1], w.T.Shape[2], w.T.Shape[3]
	if kh != kw {
		// Rectangular kernels fall back to the direct implementation.
		return Conv2D(x, w, b, cfg)
	}
	s, p := cfg.Stride, cfg.Padding
	oh, ow := convOutDim(h, kh, s, p), convOutDim(wd, kw, s, p)
	if oh <= 0 || ow <= 0 {
		return Conv2D(x, w, b, cfg)
	}

	if sameConvShape(kh, kw, s, p) {
		return newConv2DNode(x, w, b, cfg, EvalConv2D(nil, x.T, w.T, b.Tensor(), cfg, false, 0))
	}

	out := tensor.New(n, cout, oh, ow)
	patchRows := cin * kh * kw
	cols := oh * ow
	patch := make([]float32, patchRows*cols)
	for ni := 0; ni < n; ni++ {
		im2col(x.T.Data[ni*cin*h*wd:(ni+1)*cin*h*wd], cin, h, wd, kh, s, p, oh, ow, patch)
		// (cout × patchRows) · (patchRows × cols) → (cout × cols)
		matmulNT(w.T.Data, patch, out.Data[ni*cout*cols:(ni+1)*cout*cols],
			cout, patchRows, cols, 0)
	}
	addBias(out.Data, b.Tensor(), n, cout, cols)

	return newConv2DNode(x, w, b, cfg, out)
}

// ConvTranspose2DFast is a drop-in replacement for ConvTranspose2D
// whose forward pass dispatches stride-1 "same" odd-square-kernel
// layers — all of DDnet's deconvolutions — to the selected
// internal/kernels rung (kernels.Default, normally the gather + GEMM
// formulation from §4.2.1, which has no scatter races and so
// parallelizes over output tiles). Other shapes fall back to the
// direct gather loops. Gradients are identical to ConvTranspose2D's.
func ConvTranspose2DFast(x, w, b *Value, cfg Conv2DConfig) *Value {
	if !sameConvShape(w.T.Shape[2], w.T.Shape[3], cfg.Stride, cfg.Padding) {
		return ConvTranspose2D(x, w, b, cfg)
	}
	return newConvTranspose2DNode(x, w, b, cfg, EvalConv2D(nil, x.T, w.T, b.Tensor(), cfg, true, 0))
}
