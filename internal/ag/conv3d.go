package ag

import (
	"fmt"

	"computecovid19/internal/parallel"
)

// Conv3DConfig holds the hyper-parameters of a 3D convolution or pool.
type Conv3DConfig struct {
	Stride  int
	Padding int
}

// Conv3D performs a 3D cross-correlation over (N, C, D, H, W) volumes,
// the building block of the 3D DenseNet classifier (§2.3.2). The layer
// must be a stride-1 "same" one with an odd cubic kernel (EvalConv3D,
// its forward, panics otherwise).
//
//	x: (N, Cin, D, H, W)   w: (Cout, Cin, K, K, K)   b: (Cout) or nil
func Conv3D(x, w, b *Value, cfg Conv3DConfig) *Value {
	out := EvalConv3D(nil, x.T, w.T, b.Tensor(), cfg)
	n, cin, dd, h, wd := x.T.Shape[0], x.T.Shape[1], x.T.Shape[2], x.T.Shape[3], x.T.Shape[4]
	cout, kd, kh, kw := w.T.Shape[0], w.T.Shape[2], w.T.Shape[3], w.T.Shape[4]
	s, p := cfg.Stride, cfg.Padding
	od0, oh, ow := out.Shape[2], out.Shape[3], out.Shape[4]
	xd, wdta := x.T.Data, w.T.Data
	planeIn := dd * h * wd
	planeOut := od0 * oh * ow

	parents := []*Value{x, w}
	if b != nil {
		parents = append(parents, b)
	}
	var node *Value
	node = newNode("conv3d", out, func() {
		gy := node.Grad.Data
		if x.needGrad {
			gx := x.ensureGrad().Data
			parallel.ForEach(n*cin, 0, func(idx int) {
				ni, ci := idx/cin, idx%cin
				xbase := (ni*cin + ci) * planeIn
				for iz := 0; iz < dd; iz++ {
					for iy := 0; iy < h; iy++ {
						for ix := 0; ix < wd; ix++ {
							var acc float32
							for kz := 0; kz < kd; kz++ {
								ozNum := iz + p - kz
								if ozNum < 0 || ozNum%s != 0 {
									continue
								}
								oz := ozNum / s
								if oz >= od0 {
									continue
								}
								for ky := 0; ky < kh; ky++ {
									oyNum := iy + p - ky
									if oyNum < 0 || oyNum%s != 0 {
										continue
									}
									oy := oyNum / s
									if oy >= oh {
										continue
									}
									for kx := 0; kx < kw; kx++ {
										oxNum := ix + p - kx
										if oxNum < 0 || oxNum%s != 0 {
											continue
										}
										ox := oxNum / s
										if ox >= ow {
											continue
										}
										for co := 0; co < cout; co++ {
											acc += gy[(ni*cout+co)*planeOut+(oz*oh+oy)*ow+ox] *
												wdta[((co*cin+ci)*kd+kz)*kh*kw+ky*kw+kx]
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
			parallel.ForEach(cout*cin, 0, func(idx int) {
				co, ci := idx/cin, idx%cin
				wbase := (co*cin + ci) * kd * kh * kw
				for kz := 0; kz < kd; kz++ {
					for ky := 0; ky < kh; ky++ {
						for kx := 0; kx < kw; kx++ {
							var acc float32
							for ni := 0; ni < n; ni++ {
								xbase := (ni*cin + ci) * planeIn
								ybase := (ni*cout + co) * planeOut
								for oz := 0; oz < od0; oz++ {
									iz := oz*s - p + kz
									if iz < 0 || iz >= dd {
										continue
									}
									for oy := 0; oy < oh; oy++ {
										iy := oy*s - p + ky
										if iy < 0 || iy >= h {
											continue
										}
										for ox := 0; ox < ow; ox++ {
											ix := ox*s - p + kx
											if ix < 0 || ix >= wd {
												continue
											}
											acc += xd[xbase+(iz*h+iy)*wd+ix] *
												gy[ybase+(oz*oh+oy)*ow+ox]
										}
									}
								}
							}
							gw[wbase+(kz*kh+ky)*kw+kx] += acc
						}
					}
				}
			})
		}
		if b != nil && b.needGrad {
			gb := b.ensureGrad().Data
			for ni := 0; ni < n; ni++ {
				for co := 0; co < cout; co++ {
					base := (ni*cout + co) * planeOut
					var acc float32
					for i := 0; i < planeOut; i++ {
						acc += gy[base+i]
					}
					gb[co] += acc
				}
			}
		}
	}, parents...)
	return node
}

// MaxPool3D applies max pooling over (D, H, W) with a cubic kernel.
func MaxPool3D(x *Value, cfg Pool2DConfig) *Value {
	if x.T.Rank() != 5 {
		panic(fmt.Sprintf("ag: MaxPool3D wants rank-5 input, got %v", x.T.Shape))
	}
	out, argmax := maxPool3D(nil, x.T, cfg, true)
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
