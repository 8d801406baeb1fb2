package kernels

import "computecovid19/internal/parallel"

// The convolution rungs compute a stride-1 "same" convolution
// out = w ⊛ x on CHW buffers. Weights are laid out (OutC, InC, K, K).
// The work is distributed across workers (<=0 means GOMAXPROCS),
// mirroring the OpenCL NDRange mapping. Rungs are looked up through the
// registry (MustSelect).

// convBaseline recomputes every offset in the innermost loops and reads
// the shape struct each iteration — the straight port of the naive
// OpenCL kernel.
func convBaseline(x, w, out []float32, s ConvShape, workers int) {
	pad := s.K / 2
	parallel.ForEach(s.OutC, workers, func(co int) {
		for oy := 0; oy < s.H; oy++ {
			for ox := 0; ox < s.W; ox++ {
				var acc float32
				for ci := 0; ci < s.InC; ci++ {
					for ky := 0; ky < s.K; ky++ {
						for kx := 0; kx < s.K; kx++ {
							iy := oy - pad + ky
							ix := ox - pad + kx
							if iy < 0 || iy >= s.H || ix < 0 || ix >= s.W {
								continue
							}
							acc += x[(ci*s.H+iy)*s.W+ix] *
								w[((co*s.InC+ci)*s.K+ky)*s.K+kx]
						}
					}
				}
				out[(co*s.H+oy)*s.W+ox] = acc
			}
		}
	})
}

// convPrefetch hoists loop bounds into locals and prefetches the filter
// taps of the current (co, ci) pair into a stack buffer before sweeping
// the image (§4.2.2 "memory prefetching").
func convPrefetch(x, w, out []float32, s ConvShape, workers int) {
	h, wd, k, inC := s.H, s.W, s.K, s.InC
	pad := k / 2
	parallel.ForEach(s.OutC, workers, func(co int) {
		obase := co * h * wd
		var taps [49]float32 // k <= 7
		for ci := 0; ci < inC; ci++ {
			wbase := (co*inC + ci) * k * k
			copy(taps[:k*k], w[wbase:wbase+k*k])
			xbase := ci * h * wd
			first := ci == 0
			for oy := 0; oy < h; oy++ {
				for ox := 0; ox < wd; ox++ {
					var acc float32
					for ky := 0; ky < k; ky++ {
						iy := oy - pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						xrow := xbase + iy*wd
						trow := ky * k
						for kx := 0; kx < k; kx++ {
							ix := ox - pad + kx
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

// convUnrolled adds full unrolling of the kx multiply-add loop for the
// DDnet kernel sizes (1, 3, 5), the paper's factor-5 unroll (§4.2.2).
// Interior pixels take the branch-free fast path; borders fall back.
func convUnrolled(x, w, out []float32, s ConvShape, workers int) {
	h, wd, k, inC := s.H, s.W, s.K, s.InC
	pad := k / 2
	if k != 1 && k != 3 && k != 5 {
		convPrefetch(x, w, out, s, workers)
		return
	}
	parallel.ForEach(s.OutC, workers, func(co int) {
		obase := co * h * wd
		var taps [25]float32
		for ci := 0; ci < inC; ci++ {
			wbase := (co*inC + ci) * k * k
			copy(taps[:k*k], w[wbase:wbase+k*k])
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
							iy := oy - pad + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox - pad + kx
								if ix < 0 || ix >= wd {
									continue
								}
								acc += x[xbase+iy*wd+ix] * taps[ky*k+kx]
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
