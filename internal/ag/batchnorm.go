package ag

import (
	"fmt"
	"math"

	"computecovid19/internal/kernels"
	"computecovid19/internal/tensor"
)

// BatchNorm normalizes x per channel. It is rank-generic: x is treated
// as (N, C, spatial...) so the same op serves BatchNorm2d (DDnet) and
// BatchNorm3d (the classifier). gamma and beta are (C) parameters.
//
// In training mode the batch statistics are used and runningMean /
// runningVar (plain tensors, not tape nodes) are updated in place with
// the given momentum, matching PyTorch semantics:
//
//	running = (1-momentum)*running + momentum*batch
//
// In eval mode the running statistics are used and the op reduces to an
// affine transform.
func BatchNorm(x, gamma, beta *Value, runningMean, runningVar *tensor.Tensor,
	training bool, momentum, eps float32) *Value {

	if x.T.Rank() < 2 {
		panic(fmt.Sprintf("ag: BatchNorm wants rank >= 2, got %v", x.T.Shape))
	}
	n := x.T.Shape[0]
	c := x.T.Shape[1]
	spatial := 1
	for _, d := range x.T.Shape[2:] {
		spatial *= d
	}
	if gamma.T.Numel() != c || beta.T.Numel() != c {
		panic(fmt.Sprintf("ag: BatchNorm gamma/beta must have %d elements", c))
	}
	m := n * spatial // elements per channel

	mean := make([]float64, c)
	varr := make([]float64, c)
	if training {
		for ni := 0; ni < n; ni++ {
			for ci := 0; ci < c; ci++ {
				base := (ni*c + ci) * spatial
				for i := 0; i < spatial; i++ {
					mean[ci] += float64(x.T.Data[base+i])
				}
			}
		}
		for ci := range mean {
			mean[ci] /= float64(m)
		}
		for ni := 0; ni < n; ni++ {
			for ci := 0; ci < c; ci++ {
				base := (ni*c + ci) * spatial
				for i := 0; i < spatial; i++ {
					d := float64(x.T.Data[base+i]) - mean[ci]
					varr[ci] += d * d
				}
			}
		}
		for ci := range varr {
			varr[ci] /= float64(m) // biased variance, as used for normalization
		}
		if runningMean != nil && runningVar != nil {
			for ci := 0; ci < c; ci++ {
				runningMean.Data[ci] = (1-momentum)*runningMean.Data[ci] + momentum*float32(mean[ci])
				// PyTorch stores the unbiased variance in running_var.
				unbiased := varr[ci]
				if m > 1 {
					unbiased = varr[ci] * float64(m) / float64(m-1)
				}
				runningVar.Data[ci] = (1-momentum)*runningVar.Data[ci] + momentum*float32(unbiased)
			}
		}
	} else {
		if runningMean == nil || runningVar == nil {
			panic("ag: BatchNorm eval mode requires running statistics")
		}
		for ci := 0; ci < c; ci++ {
			mean[ci] = float64(runningMean.Data[ci])
			varr[ci] = float64(runningVar.Data[ci])
		}
	}

	invStd := make([]float32, c)
	for ci := 0; ci < c; ci++ {
		invStd[ci] = float32(1.0 / math.Sqrt(varr[ci]+float64(eps)))
	}

	// xhat is retained for the backward pass, but only the training
	// branch needs it materialized: in eval mode the statistics are
	// constants, so the gamma gradient can recompute x̂ on the fly and
	// the forward stays allocation-lean.
	var out *tensor.Tensor
	var xhat []float32
	if training {
		out = tensor.New(x.T.Shape...)
		xhat = make([]float32, len(x.T.Data))
		for ni := 0; ni < n; ni++ {
			for ci := 0; ci < c; ci++ {
				base := (ni*c + ci) * spatial
				g := gamma.T.Data[ci]
				b := beta.T.Data[ci]
				mu := float32(mean[ci])
				is := invStd[ci]
				for i := 0; i < spatial; i++ {
					xh := (x.T.Data[base+i] - mu) * is
					xhat[base+i] = xh
					out.Data[base+i] = g*xh + b
				}
			}
		}
	} else {
		out = tensor.New(x.T.Shape...)
		kernels.BatchNormInfer(x.T.Data, out.Data, c, spatial, gamma.T.Data, beta.T.Data,
			runningMean.Data, runningVar.Data, eps, 1)
	}

	var node *Value
	node = newNode("batchnorm", out, func() {
		gy := node.Grad.Data
		if gamma.needGrad {
			gg := gamma.ensureGrad().Data
			for ni := 0; ni < n; ni++ {
				for ci := 0; ci < c; ci++ {
					base := (ni*c + ci) * spatial
					mu := float32(mean[ci])
					is := invStd[ci]
					var acc float32
					if xhat != nil {
						for i := 0; i < spatial; i++ {
							acc += gy[base+i] * xhat[base+i]
						}
					} else {
						for i := 0; i < spatial; i++ {
							acc += gy[base+i] * ((x.T.Data[base+i] - mu) * is)
						}
					}
					gg[ci] += acc
				}
			}
		}
		if beta.needGrad {
			gb := beta.ensureGrad().Data
			for ni := 0; ni < n; ni++ {
				for ci := 0; ci < c; ci++ {
					base := (ni*c + ci) * spatial
					var acc float32
					for i := 0; i < spatial; i++ {
						acc += gy[base+i]
					}
					gb[ci] += acc
				}
			}
		}
		if x.needGrad {
			gx := x.ensureGrad().Data
			if training {
				// Full batch-norm backward: the batch statistics depend
				// on x, so gradients flow through mean and variance too.
				for ci := 0; ci < c; ci++ {
					var sumDy, sumDyXhat float64
					for ni := 0; ni < n; ni++ {
						base := (ni*c + ci) * spatial
						for i := 0; i < spatial; i++ {
							sumDy += float64(gy[base+i])
							sumDyXhat += float64(gy[base+i]) * float64(xhat[base+i])
						}
					}
					g := float64(gamma.T.Data[ci])
					is := float64(invStd[ci])
					mf := float64(m)
					for ni := 0; ni < n; ni++ {
						base := (ni*c + ci) * spatial
						for i := 0; i < spatial; i++ {
							dy := float64(gy[base+i])
							xh := float64(xhat[base+i])
							gx[base+i] += float32(g * is / mf * (mf*dy - sumDy - xh*sumDyXhat))
						}
					}
				}
			} else {
				// Eval mode: statistics are constants.
				for ni := 0; ni < n; ni++ {
					for ci := 0; ci < c; ci++ {
						base := (ni*c + ci) * spatial
						scale := gamma.T.Data[ci] * invStd[ci]
						for i := 0; i < spatial; i++ {
							gx[base+i] += gy[base+i] * scale
						}
					}
				}
			}
		}
	}, x, gamma, beta)
	return node
}
