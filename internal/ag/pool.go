package ag

import (
	"fmt"

	"computecovid19/internal/kernels"
	"computecovid19/internal/parallel"
	"computecovid19/internal/tensor"
)

// Pool2DConfig holds the hyper-parameters of a 2D or 3D pooling layer.
type Pool2DConfig struct {
	Kernel  int
	Stride  int
	Padding int
}

// convOutDim is the number of positions a k-wide window takes at the
// given stride over in cells padded by pad on each side.
func convOutDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// MaxPool2D applies max pooling over each (H, W) plane of a
// (N, C, H, W) tensor. DDnet uses kernel 3, stride 2, padding 1, which
// halves the spatial dimensions. Padded cells act as -inf (ignored); the
// backward pass routes each output gradient to its argmax input.
func MaxPool2D(x *Value, cfg Pool2DConfig) *Value {
	if x.T.Rank() != 4 {
		panic(fmt.Sprintf("ag: MaxPool2D wants rank-4 input, got %v", x.T.Shape))
	}
	out, argmax := maxPool(x.T, cfg, 0)
	return maxPoolNode("maxpool2d", x, out, argmax)
}

// maxPoolNode puts a max pool's forward result on the tape: backward
// routes each output gradient to the input its kernel recorded in
// argmax.
func maxPoolNode(op string, x *Value, out *tensor.Tensor, argmax []int32) *Value {
	planes := x.T.Shape[0] * x.T.Shape[1]
	planeOut := len(out.Data) / planes
	var node *Value
	node = newNode(op, out, func() {
		if x.needGrad {
			gx := x.ensureGrad().Data
			gy := node.Grad.Data
			// Scatter by argmax; parallel over planes keeps writers on
			// disjoint regions because argmax indices stay in-plane.
			parallel.ForEach(planes, 0, func(plane int) {
				obase := plane * planeOut
				for i := 0; i < planeOut; i++ {
					if idx := argmax[obase+i]; idx >= 0 {
						gx[idx] += gy[obase+i]
					}
				}
			})
		}
	}, x)
	return node
}

// AvgPool2D applies average pooling (used between MS-SSIM scales).
// Padded cells are excluded from the average (count_include_pad=false).
func AvgPool2D(x *Value, cfg Pool2DConfig) *Value {
	if x.T.Rank() != 4 {
		panic(fmt.Sprintf("ag: AvgPool2D wants rank-4 input, got %v", x.T.Shape))
	}
	n, c, h, w := x.T.Shape[0], x.T.Shape[1], x.T.Shape[2], x.T.Shape[3]
	k, s, p := cfg.Kernel, cfg.Stride, cfg.Padding
	oh, ow := convOutDim(h, k, s, p), convOutDim(w, k, s, p)
	if oh <= 0 || ow <= 0 {
		panic("ag: AvgPool2D output would be empty")
	}
	out := tensor.New(n, c, oh, ow)
	xd, od := x.T.Data, out.Data
	parallel.ForEach(n*c, 0, func(plane int) {
		xbase := plane * h * w
		obase := plane * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var acc float32
				cnt := 0
				for ky := 0; ky < k; ky++ {
					iy := oy*s - p + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < k; kx++ {
						ix := ox*s - p + kx
						if ix < 0 || ix >= w {
							continue
						}
						acc += xd[xbase+iy*w+ix]
						cnt++
					}
				}
				if cnt > 0 {
					od[obase+oy*ow+ox] = acc / float32(cnt)
				}
			}
		}
	})

	var node *Value
	node = newNode("avgpool2d", out, func() {
		if x.needGrad {
			gx := x.ensureGrad().Data
			gy := node.Grad.Data
			parallel.ForEach(n*c, 0, func(plane int) {
				xbase := plane * h * w
				obase := plane * oh * ow
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						cnt := 0
						for ky := 0; ky < k; ky++ {
							iy := oy*s - p + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*s - p + kx
								if ix >= 0 && ix < w {
									cnt++
								}
							}
						}
						if cnt == 0 {
							continue
						}
						d := gy[obase+oy*ow+ox] / float32(cnt)
						for ky := 0; ky < k; ky++ {
							iy := oy*s - p + ky
							if iy < 0 || iy >= h {
								continue
							}
							for kx := 0; kx < k; kx++ {
								ix := ox*s - p + kx
								if ix < 0 || ix >= w {
									continue
								}
								gx[xbase+iy*w+ix] += d
							}
						}
					}
				}
			})
		}
	}, x)
	return node
}

// UpsampleBilinear2D scales each (H, W) plane by an integer factor using
// bilinear interpolation — DDnet's un-pooling operation (§2.2.2). It uses
// the half-pixel (align_corners=false) convention: the source coordinate
// for destination pixel d is (d+0.5)/scale - 0.5.
func UpsampleBilinear2D(x *Value, scale int) *Value {
	if x.T.Rank() != 4 {
		panic(fmt.Sprintf("ag: UpsampleBilinear2D wants rank-4 input, got %v", x.T.Shape))
	}
	if scale < 1 {
		panic("ag: UpsampleBilinear2D scale must be >= 1")
	}
	n, c, h, w := x.T.Shape[0], x.T.Shape[1], x.T.Shape[2], x.T.Shape[3]
	oh, ow := h*scale, w*scale
	ty, tx := kernels.NewBilinearTable(h, oh), kernels.NewBilinearTable(w, ow)
	out := tensor.New(n, c, oh, ow)
	kernels.Upsample(x.T.Data, out.Data, n*c, h, w, 0, ty, tx, 0)

	var node *Value
	node = newNode("upsample2d", out, func() {
		if x.needGrad {
			gx := x.ensureGrad().Data
			gy := node.Grad.Data
			parallel.ForEach(n*c, 0, func(plane int) {
				xbase := plane * h * w
				obase := plane * oh * ow
				for oy := 0; oy < oh; oy++ {
					y0, y1, wy := ty.Lo[oy], ty.Hi[oy], ty.Frac[oy]
					for ox := 0; ox < ow; ox++ {
						x0, x1, wx := tx.Lo[ox], tx.Hi[ox], tx.Frac[ox]
						d := gy[obase+oy*ow+ox]
						gx[xbase+y0*w+x0] += d * (1 - wy) * (1 - wx)
						gx[xbase+y0*w+x1] += d * (1 - wy) * wx
						gx[xbase+y1*w+x0] += d * wy * (1 - wx)
						gx[xbase+y1*w+x1] += d * wy * wx
					}
				}
			})
		}
	}, x)
	return node
}

// MaxPool3D applies max pooling over (D, H, W) with a cubic kernel.
func MaxPool3D(x *Value, cfg Pool2DConfig) *Value {
	if x.T.Rank() != 5 {
		panic(fmt.Sprintf("ag: MaxPool3D wants rank-5 input, got %v", x.T.Shape))
	}
	out, argmax := maxPool(x.T, cfg, 0)
	return maxPoolNode("maxpool3d", x, out, argmax)
}

// GlobalAvgPool3D averages each channel's (D, H, W) volume down to a
// single value, producing (N, C). It feeds the classifier's fully
// connected head.
func GlobalAvgPool3D(x *Value) *Value {
	if x.T.Rank() != 5 {
		panic(fmt.Sprintf("ag: GlobalAvgPool3D wants rank-5 input, got %v", x.T.Shape))
	}
	n, c := x.T.Shape[0], x.T.Shape[1]
	spatial := x.T.Shape[2] * x.T.Shape[3] * x.T.Shape[4]
	out := EvalGlobalAvgPool3D(nil, x.T)
	var node *Value
	node = newNode("gap3d", out, func() {
		if x.needGrad {
			gx := x.ensureGrad().Data
			gy := node.Grad.Data
			inv := 1 / float32(spatial)
			for plane := 0; plane < n*c; plane++ {
				d := gy[plane] * inv
				base := plane * spatial
				for i := 0; i < spatial; i++ {
					gx[base+i] += d
				}
			}
		}
	}, x)
	return node
}
