package ag

import (
	"fmt"

	"computecovid19/internal/kernels"
	"computecovid19/internal/parallel"
	"computecovid19/internal/tensor"
)

// The convolution graph ops. Every convolution the networks have —
// DDnet's, the 2D slice classifier's and the 3D DenseNet's — is a
// stride-1 "same" layer with an odd square or cubic kernel, so that is
// the only shape these ops take: the padding is K/2 by construction and
// the output has the input's spatial extent. The forwards are conv2D
// and conv3D below, and all three ops share one tape node whose
// backward treats a 2D layer as a volumetric one of depth 1 with a
// depth-1 kernel, as kernels.ConvShape does.

// Conv2D cross-correlates (the deep-learning convention) x with
// weights w and adds the optional bias b.
//
//	x: (N, Cin, H, W)   w: (Cout, Cin, K, K)   b: (Cout) or nil
//	out: (N, Cout, H, W)
func Conv2D(x, w, b *Value) *Value {
	return convNode("conv2d", x, w, b, false, conv2D(x.T, w.T, b.Tensor(), false))
}

// ConvTranspose2D is the transposed convolution (deconvolution) of
// DDnet's reconstruction half, the adjoint of Conv2D with the same
// weights.
//
//	x: (N, Cin, H, W)   w: (Cin, Cout, K, K)   b: (Cout) or nil
//	out: (N, Cout, H, W)
func ConvTranspose2D(x, w, b *Value) *Value {
	return convNode("convtranspose2d", x, w, b, true, conv2D(x.T, w.T, b.Tensor(), true))
}

// Conv3D cross-correlates (N, C, D, H, W) volumes, the building block
// of the 3D DenseNet classifier (§2.3.2).
//
//	x: (N, Cin, D, H, W)   w: (Cout, Cin, K, K, K)   b: (Cout) or nil
//	out: (N, Cout, D, H, W)
func Conv3D(x, w, b *Value) *Value {
	return convNode("conv3d", x, w, b, false, conv3D(x.T, w.T, b.Tensor()))
}

// conv2D runs a stride-1 "same" odd-square-kernel convolution — or,
// with transposed set, transposed convolution — through the implicit
// GEMM (kernels.ConvCompact, which halo-pads the input for
// kernels.ConvFused, with the zero epilogue, or kernels.DeconvGEMM,
// which flips the weights first), batch elements in series. Every DDnet layer has this
// shape. Weights are (OutC, InC, K, K), or (InC, OutC, K, K) when
// transposed; b may be nil.
func conv2D(x, w, b *tensor.Tensor, transposed bool) *tensor.Tensor {
	checkConv(x, w, b, 4, transposed)
	n, cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	cout := w.Shape[0]
	if transposed {
		cout = w.Shape[1]
	}
	out := tensor.New(n, cout, h, wd)
	ks := kernels.ConvShape{InC: cin, H: h, W: wd, OutC: cout, K: w.Shape[2]}
	plane := cin * h * wd
	oplane := cout * h * wd
	for ni := 0; ni < n; ni++ {
		xi, oi := x.Data[ni*plane:(ni+1)*plane], out.Data[ni*oplane:(ni+1)*oplane]
		if transposed {
			kernels.DeconvGEMM(xi, w.Data, oi, ks, 0)
		} else {
			kernels.ConvCompact(xi, w.Data, oi, ks, 0, kernels.Epilogue{})
		}
	}
	addBias(out.Data, b, n, cout, h*wd)
	return out
}

// checkConv panics unless x, w and b form a stride-1 "same"
// convolution of the given rank (4: 2D, 5: 3D) with an odd square or
// cubic kernel: x (N, Cin, spatial...), w (Cout, Cin, K...) — (Cin,
// Cout, K, K) when transposed — and b (Cout) or nil. conv2D and conv3D
// run it on the caller's goroutine, before any tile is dispatched: a bad
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

// conv3D cross-correlates (N, Cin, D, H, W) volumes with weights
// (Cout, Cin, K, K, K) — a stride-1 "same" layer with an odd cubic
// kernel, the only shape the classifier has — on the fused GEMM
// (kernels.ConvCompact), batch elements in series, with the bias (b may
// be nil) seeding each output's sum. The GEMM then adds the taps in
// (ci, kz, ky, kx) order and a padded tap adds an exact zero, so the
// bits are those of the direct loop nest (TestConv3DMatchesDirectNest).
func conv3D(x, w, b *tensor.Tensor) *tensor.Tensor {
	checkConv(x, w, b, 5, false)
	n, cin, dd, h, wd := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3], x.Shape[4]
	cout := w.Shape[0]
	out := tensor.New(n, cout, dd, h, wd)
	ks := kernels.ConvShape{InC: cin, D: dd, H: h, W: wd, OutC: cout, K: w.Shape[2]}
	var ep kernels.Epilogue
	if b != nil {
		ep.Bias = b.Data
	}
	in, o := ks.InLen(), ks.OutLen()
	for ni := 0; ni < n; ni++ {
		kernels.ConvCompact(x.Data[ni*in:(ni+1)*in], w.Data, out.Data[ni*o:(ni+1)*o], ks, 0, ep)
	}
	return out
}

// convNode puts a convolution's forward result on the tape.
func convNode(op string, x, w, b *Value, transposed bool, out *tensor.Tensor) *Value {
	parents := []*Value{x, w}
	if b != nil {
		parents = append(parents, b)
	}
	var node *Value
	node = newNode(op, out, func() {
		convBackward(x, w, b, node.Grad.Data, transposed)
	}, parents...)
	return node
}

// convBackward accumulates the gradients of a stride-1 "same"
// convolution, or with transposed set a transposed one, given the
// output gradient gy. The two differ in three places: the weight
// layout, (Cout, Cin, ...) against (Cin, Cout, ...); the side of a tap
// — input cell i of a convolution fed output i + p − k, of a transposed
// one output i − p + k; and so which of x and gy the weight gradient's
// sum runs over while it taps the other. Each gradient element is one
// sum in a fixed order (dX: taps, then output channels; dW: batch, then
// position), so the bits do not depend on the worker count.
func convBackward(x, w, b *Value, gy []float32, transposed bool) {
	xs, ws := x.T.Shape, w.T.Shape
	n, cin, cout := xs[0], xs[1], ws[0]
	if transposed {
		cout = ws[1]
	}
	d, kd := 1, 1
	if len(xs) == 5 {
		d, kd = xs[2], ws[2]
	}
	h, wd, k := xs[len(xs)-2], xs[len(xs)-1], ws[len(ws)-1]
	pz, p := kd/2, k/2
	plane, taps := d*h*wd, kd*k*k
	// Weight strides of one output and one input channel.
	wco, wci := cin*taps, taps
	sgn := 1
	if transposed {
		wco, wci, sgn = taps, cout*taps, -1
	}
	xd, wdta := x.T.Data, w.T.Data

	if x.needGrad {
		gx := x.ensureGrad().Data
		// Gather formulation: each input cell sums the output cells it
		// fed, so workers write disjoint (n, ci) planes.
		parallel.ForEach(n*cin, 0, func(idx int) {
			ni, ci := idx/cin, idx%cin
			xbase, ybase := idx*plane, ni*cout*plane
			for iz := 0; iz < d; iz++ {
				for iy := 0; iy < h; iy++ {
					for ix := 0; ix < wd; ix++ {
						var acc float32
						for kz := 0; kz < kd; kz++ {
							oz := iz + sgn*(pz-kz)
							if oz < 0 || oz >= d {
								continue
							}
							for ky := 0; ky < k; ky++ {
								oy := iy + sgn*(p-ky)
								if oy < 0 || oy >= h {
									continue
								}
								for kx := 0; kx < k; kx++ {
									ox := ix + sgn*(p-kx)
									if ox < 0 || ox >= wd {
										continue
									}
									yi := ybase + (oz*h+oy)*wd + ox
									wi := ci*wci + (kz*k+ky)*k + kx
									for co := 0; co < cout; co++ {
										acc += gy[yi+co*plane] * wdta[wi+co*wco]
									}
								}
							}
						}
						gx[xbase+(iz*h+iy)*wd+ix] += acc
					}
				}
			}
		})
	}
	if w.needGrad {
		gw := w.ensureGrad().Data
		w1 := ws[1]
		// One worker per (ws[0], ws[1]) filter: disjoint gw elements.
		parallel.ForEach(ws[0]*w1, 0, func(idx int) {
			co, ci := idx/w1, idx%w1
			if transposed {
				co, ci = ci, co
			}
			for kz := 0; kz < kd; kz++ {
				z0, z1 := tapSpan(d, kz-pz)
				for ky := 0; ky < k; ky++ {
					y0, y1 := tapSpan(h, ky-p)
					for kx := 0; kx < k; kx++ {
						x0, x1 := tapSpan(wd, kx-p)
						// The sum runs over the positions q of gy for a
						// convolution, of x for a transposed one, and
						// taps the other at q + off.
						off := ((kz-pz)*h+ky-p)*wd + kx - p
						xoff, yoff := off, 0
						if transposed {
							xoff, yoff = 0, off
						}
						var acc float32 // an empty column span is never sliced
						for ni := 0; ni < n && x0 < x1; ni++ {
							xbase := (ni*cin+ci)*plane + xoff
							ybase := (ni*cout+co)*plane + yoff
							for qz := z0; qz < z1; qz++ {
								for qy := y0; qy < y1; qy++ {
									row := (qz*h + qy) * wd
									xr := xd[xbase+row+x0 : xbase+row+x1]
									yr := gy[ybase+row+x0 : ybase+row+x1]
									for i, v := range xr {
										acc += v * yr[i]
									}
								}
							}
						}
						gw[idx*taps+(kz*k+ky)*k+kx] += acc
					}
				}
			}
		})
	}
	if b != nil && b.needGrad {
		gb := b.ensureGrad().Data
		for ni := 0; ni < n; ni++ {
			for co := 0; co < cout; co++ {
				var acc float32
				for _, v := range gy[(ni*cout+co)*plane : (ni*cout+co+1)*plane] {
					acc += v
				}
				gb[co] += acc
			}
		}
	}
}

// tapSpan returns the positions q in [0, n) whose tap q + off is in
// [0, n) too, as [lo, hi); the span is empty when hi == lo.
func tapSpan(n, off int) (lo, hi int) {
	lo = max(0, -off)
	return lo, max(lo, min(n, n-off))
}
