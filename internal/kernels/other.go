package kernels

import (
	"math"

	"computecovid19/internal/parallel"
)

// MaxPool applies 3×3/stride-2/pad-1 max pooling per channel (DDnet's
// pooling layer), halving H and W. out must hold C·(H/2)·(W/2) values.
func MaxPool(x, out []float32, c, h, w, workers int) {
	oh, ow := h/2, w/2
	parallel.ForEach(c, workers, func(ci int) {
		xbase := ci * h * w
		obase := ci * oh * ow
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best := float32(math.Inf(-1))
				for ky := 0; ky < 3; ky++ {
					iy := oy*2 - 1 + ky
					if iy < 0 || iy >= h {
						continue
					}
					for kx := 0; kx < 3; kx++ {
						ix := ox*2 - 1 + kx
						if ix < 0 || ix >= w {
							continue
						}
						if v := x[xbase+iy*w+ix]; v > best {
							best = v
						}
					}
				}
				out[obase+oy*ow+ox] = best
			}
		}
	})
}

// Unpool applies 2× bilinear up-sampling per channel (DDnet's
// un-pooling). out must hold C·2H·2W values.
func Unpool(x, out []float32, c, h, w, workers int) {
	oh, ow := 2*h, 2*w
	parallel.ForEach(c, workers, func(ci int) {
		xbase := ci * h * w
		obase := ci * oh * ow
		for oy := 0; oy < oh; oy++ {
			sy := (float32(oy)+0.5)/2 - 0.5
			if sy < 0 {
				sy = 0
			}
			y0 := int(sy)
			if y0 > h-1 {
				y0 = h - 1
			}
			y1 := y0 + 1
			if y1 > h-1 {
				y1 = h - 1
			}
			fy := sy - float32(y0)
			for ox := 0; ox < ow; ox++ {
				sx := (float32(ox)+0.5)/2 - 0.5
				if sx < 0 {
					sx = 0
				}
				x0 := int(sx)
				if x0 > w-1 {
					x0 = w - 1
				}
				x1 := x0 + 1
				if x1 > w-1 {
					x1 = w - 1
				}
				fx := sx - float32(x0)
				v00 := x[xbase+y0*w+x0]
				v01 := x[xbase+y0*w+x1]
				v10 := x[xbase+y1*w+x0]
				v11 := x[xbase+y1*w+x1]
				top := v00 + fx*(v01-v00)
				bot := v10 + fx*(v11-v10)
				out[obase+oy*ow+ox] = top + fy*(bot-top)
			}
		}
	})
}

// LeakyReLU applies max(x, slope·x) in place.
func LeakyReLU(x []float32, slope float32, workers int) {
	parallel.For(len(x), workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if x[i] < 0 {
				x[i] *= slope
			}
		}
	})
}

// BatchNormInfer applies the inference-time affine normalization
// y = γ·(x−μ)/√(σ²+ε) + β per channel, in place.
func BatchNormInfer(x []float32, c, h, w int, gamma, beta, mean, variance []float32, eps float32, workers int) {
	parallel.ForEach(c, workers, func(ci int) {
		inv := 1 / float32(math.Sqrt(float64(variance[ci]+eps)))
		g, b, m := gamma[ci], beta[ci], mean[ci]
		base := ci * h * w
		for i := base; i < base+h*w; i++ {
			x[i] = g*(x[i]-m)*inv + b
		}
	})
}
