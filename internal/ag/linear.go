package ag

import (
	"fmt"

	"computecovid19/internal/parallel"
	"computecovid19/internal/tensor"
)

// Linear computes the affine map x·wᵀ + b used by the classifier head.
//
//	x: (N, In)   w: (Out, In)   b: (Out) or nil   out: (N, Out)
func Linear(x, w, b *Value) *Value {
	if x.T.Rank() != 2 || w.T.Rank() != 2 {
		panic(fmt.Sprintf("ag: Linear wants rank-2 x and w, got %v and %v", x.T.Shape, w.T.Shape))
	}
	n, in := x.T.Shape[0], x.T.Shape[1]
	outF, win := w.T.Shape[0], w.T.Shape[1]
	if in != win {
		panic(fmt.Sprintf("ag: Linear feature mismatch: x has %d, w expects %d", in, win))
	}
	if b != nil && b.T.Numel() != outF {
		panic(fmt.Sprintf("ag: Linear bias shape %v, want (%d)", b.T.Shape, outF))
	}
	out := EvalLinear(nil, x.T, w.T, b.Tensor())
	xd, wd := x.T.Data, w.T.Data

	parents := []*Value{x, w}
	if b != nil {
		parents = append(parents, b)
	}
	var node *Value
	node = newNode("linear", out, func() {
		gy := node.Grad.Data
		if x.needGrad {
			gx := x.ensureGrad().Data
			for ni := 0; ni < n; ni++ {
				for i := 0; i < in; i++ {
					var acc float32
					for o := 0; o < outF; o++ {
						acc += gy[ni*outF+o] * wd[o*in+i]
					}
					gx[ni*in+i] += acc
				}
			}
		}
		if w.needGrad {
			gw := w.ensureGrad().Data
			for o := 0; o < outF; o++ {
				for i := 0; i < in; i++ {
					var acc float32
					for ni := 0; ni < n; ni++ {
						acc += gy[ni*outF+o] * xd[ni*in+i]
					}
					gw[o*in+i] += acc
				}
			}
		}
		if b != nil && b.needGrad {
			gb := b.ensureGrad().Data
			for ni := 0; ni < n; ni++ {
				for o := 0; o < outF; o++ {
					gb[o] += gy[ni*outF+o]
				}
			}
		}
	}, parents...)
	return node
}

// Blur2D convolves every channel of x with the same fixed 2D kernel
// (zero padding, stride 1, "same" output when the kernel is odd and
// pad = k/2). The kernel is a plain tensor, not a tape node: gradients
// flow to x only. This is the workhorse of the differentiable SSIM /
// MS-SSIM implementation, which blurs with a fixed Gaussian window.
func Blur2D(x *Value, kernel *tensor.Tensor, pad int) *Value {
	if x.T.Rank() != 4 || kernel.Rank() != 2 {
		panic(fmt.Sprintf("ag: Blur2D wants rank-4 x and rank-2 kernel, got %v and %v",
			x.T.Shape, kernel.Shape))
	}
	n, c, h, w := x.T.Shape[0], x.T.Shape[1], x.T.Shape[2], x.T.Shape[3]
	kh, kw := kernel.Shape[0], kernel.Shape[1]
	oh, ow := convOutDim(h, kh, 1, pad), convOutDim(w, kw, 1, pad)
	if oh <= 0 || ow <= 0 {
		panic("ag: Blur2D output would be empty")
	}
	out := tensor.New(n, c, oh, ow)
	xd, kd, od := x.T.Data, kernel.Data, out.Data
	parallel.ForEach(n*c, 0, func(plane int) {
		xbase := plane * h * w
		obase := plane * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float32
				for ky := 0; ky < kh; ky++ {
					iy := oy - pad + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < kw; kx++ {
						ix := ox - pad + kx
						if ix < 0 || ix >= w {
							continue
						}
						acc += xd[xbase+iy*w+ix] * kd[ky*kw+kx]
					}
				}
				od[obase+oy*ow+ox] = acc
			}
		}
	})

	var node *Value
	node = newNode("blur2d", out, func() {
		if x.needGrad {
			gx := x.ensureGrad().Data
			gy := node.Grad.Data
			parallel.ForEach(n*c, 0, func(plane int) {
				xbase := plane * h * w
				obase := plane * oh * ow
				for iy := 0; iy < h; iy++ {
					for ix := 0; ix < w; ix++ {
						var acc float32
						for ky := 0; ky < kh; ky++ {
							oy := iy + pad - ky
							if oy < 0 || oy >= oh {
								continue
							}
							for kx := 0; kx < kw; kx++ {
								ox := ix + pad - kx
								if ox < 0 || ox >= ow {
									continue
								}
								acc += gy[obase+oy*ow+ox] * kd[ky*kw+kx]
							}
						}
						gx[xbase+iy*w+ix] += acc
					}
				}
			})
		}
	}, x)
	return node
}
