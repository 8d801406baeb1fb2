package kernels

import "computecovid19/internal/parallel"

// The deconvolution rungs compute a stride-1 "same" deconvolution
// (transposed convolution) on CHW buffers. Weights are laid out
// (InC, OutC, K, K). The naive rung is the scatter formulation the
// paper profiles at 299.86 s serial on the Xeon (§5.1.3); ref and above
// use the gather refactoring of §4.2.1 (Figure 9).

// deconvScatter is Figure 9(a): every input element multiplies the whole
// filter and the partial sums are added into the output buffer — a
// read-modify-write of global memory per tap, plus per-tap index
// arithmetic with the integer divisions the paper blames for the
// deconvolution's cost. Parallelism is over output channels so scatter
// writes stay disjoint.
func deconvScatter(x, w, out []float32, s ConvShape, workers int) {
	pad := s.K / 2
	parallel.ForEach(s.OutC, workers, func(co int) {
		// Clear this output plane, then accumulate partial sums into it.
		for i := co * s.H * s.W; i < (co+1)*s.H*s.W; i++ {
			out[i] = 0
		}
		for ci := 0; ci < s.InC; ci++ {
			for iy := 0; iy < s.H; iy++ {
				for ix := 0; ix < s.W; ix++ {
					// Recurring global load of the input element, plus
					// flat-index decode with divisions, as the naive
					// OpenCL kernel does.
					idx := (ci*s.H+iy)*s.W + ix
					yy := idx / s.W % s.H
					xx := idx % s.W
					v := x[idx]
					for ky := 0; ky < s.K; ky++ {
						oy := yy - pad + ky
						if oy < 0 || oy >= s.H {
							continue
						}
						for kx := 0; kx < s.K; kx++ {
							ox := xx - pad + kx
							if ox < 0 || ox >= s.W {
								continue
							}
							// Global read-modify-write per partial sum.
							out[(co*s.H+oy)*s.W+ox] += v * w[((ci*s.OutC+co)*s.K+ky)*s.K+kx]
						}
					}
				}
			}
		}
	})
}

// deconvGather is Figure 9(b): each output element determines which
// input elements affect it and accumulates the products in a register
// before a single store. For stride 1, output (oy,ox) receives input
// (oy+pad-ky, ox+pad-kx).
func deconvGather(x, w, out []float32, s ConvShape, workers int) {
	pad := s.K / 2
	parallel.ForEach(s.OutC, workers, func(co int) {
		for oy := 0; oy < s.H; oy++ {
			for ox := 0; ox < s.W; ox++ {
				var acc float32
				for ci := 0; ci < s.InC; ci++ {
					for ky := 0; ky < s.K; ky++ {
						iy := oy + pad - ky
						if iy < 0 || iy >= s.H {
							continue
						}
						for kx := 0; kx < s.K; kx++ {
							ix := ox + pad - kx
							if ix < 0 || ix >= s.W {
								continue
							}
							acc += x[(ci*s.H+iy)*s.W+ix] *
								w[((ci*s.OutC+co)*s.K+ky)*s.K+kx]
						}
					}
				}
				out[(co*s.H+oy)*s.W+ox] = acc
			}
		}
	})
}

// deconvGatherPrefetch adds the §4.2.2 prefetching: per-(ci,co) filter
// taps staged into a stack buffer, bounds hoisted into locals.
func deconvGatherPrefetch(x, w, out []float32, s ConvShape, workers int) {
	h, wd, k, inC, outC := s.H, s.W, s.K, s.InC, s.OutC
	pad := k / 2
	parallel.ForEach(outC, workers, func(co int) {
		obase := co * h * wd
		var taps [49]float32
		for ci := 0; ci < inC; ci++ {
			wbase := (ci*outC + co) * k * k
			copy(taps[:k*k], w[wbase:wbase+k*k])
			xbase := ci * h * wd
			first := ci == 0
			for oy := 0; oy < h; oy++ {
				for ox := 0; ox < wd; ox++ {
					var acc float32
					for ky := 0; ky < k; ky++ {
						iy := oy + pad - ky
						if iy < 0 || iy >= h {
							continue
						}
						xrow := xbase + iy*wd
						trow := ky * k
						for kx := 0; kx < k; kx++ {
							ix := ox + pad - kx
							if ix < 0 || ix >= wd {
								continue
							}
							acc += x[xrow+ix] * taps[trow+kx]
						}
					}
					if first {
						out[obase+oy*wd+ox] = acc
					} else {
						out[obase+oy*wd+ox] += acc
					}
				}
			}
		}
	})
}

// deconvGatherUnrolled fully unrolls the kx multiply-add loop for
// k ∈ {1, 3, 5} (the paper's factor-5 unroll) on interior pixels.
func deconvGatherUnrolled(x, w, out []float32, s ConvShape, workers int) {
	h, wd, k, inC, outC := s.H, s.W, s.K, s.InC, s.OutC
	pad := k / 2
	if k != 1 && k != 3 && k != 5 {
		deconvGatherPrefetch(x, w, out, s, workers)
		return
	}
	parallel.ForEach(outC, workers, func(co int) {
		obase := co * h * wd
		var taps [25]float32
		for ci := 0; ci < inC; ci++ {
			wbase := (ci*outC + co) * k * k
			// Gather with a reversed kernel equals correlation with the
			// flipped taps; flip once here so the hot loop is a pure
			// multiply-add sweep.
			for i := 0; i < k*k; i++ {
				taps[i] = w[wbase+k*k-1-i]
			}
			xbase := ci * h * wd
			first := ci == 0
			for oy := 0; oy < h; oy++ {
				interiorY := oy-pad >= 0 && oy+pad < h
				for ox := 0; ox < wd; ox++ {
					var acc float32
					if interiorY && ox-pad >= 0 && ox+pad < wd {
						switch k {
						case 1:
							acc = x[xbase+oy*wd+ox] * taps[0]
						case 3:
							r0 := xbase + (oy-1)*wd + ox - 1
							r1 := r0 + wd
							r2 := r1 + wd
							acc = x[r0]*taps[0] + x[r0+1]*taps[1] + x[r0+2]*taps[2] +
								x[r1]*taps[3] + x[r1+1]*taps[4] + x[r1+2]*taps[5] +
								x[r2]*taps[6] + x[r2+1]*taps[7] + x[r2+2]*taps[8]
						case 5:
							for ky := 0; ky < 5; ky++ {
								r := xbase + (oy-2+ky)*wd + ox - 2
								t := ky * 5
								acc += x[r]*taps[t] + x[r+1]*taps[t+1] + x[r+2]*taps[t+2] +
									x[r+3]*taps[t+3] + x[r+4]*taps[t+4]
							}
						}
					} else {
						for ky := 0; ky < k; ky++ {
							iy := oy + pad - ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox + pad - kx
								if ix < 0 || ix >= wd {
									continue
								}
								// taps are flipped: index (k-1-ky, k-1-kx).
								acc += x[xbase+iy*wd+ix] * taps[(k-1-ky)*k+(k-1-kx)]
							}
						}
					}
					if first {
						out[obase+oy*wd+ox] = acc
					} else {
						out[obase+oy*wd+ox] += acc
					}
				}
			}
		}
	})
}
