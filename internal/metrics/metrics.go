// Package metrics implements the evaluation measures used throughout the
// paper: image-quality metrics (MSE, PSNR, SSIM, MS-SSIM — §5.2.1,
// Table 8) and classification metrics (accuracy, TPR/FPR, ROC curves,
// AUC, confusion matrices — §5.2.2, Equations 3–5, Figure 13, Table 9).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"computecovid19/internal/ag"
	"computecovid19/internal/tensor"
)

// MSE returns the mean squared error between two equally shaped tensors.
func MSE(a, b *tensor.Tensor) float64 {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("metrics: MSE shape mismatch %v vs %v", a.Shape, b.Shape))
	}
	s := 0.0
	for i, v := range a.Data {
		d := float64(v) - float64(b.Data[i])
		s += d * d
	}
	return s / float64(len(a.Data))
}

// PSNR returns the peak signal-to-noise ratio in dB for images with the
// given dynamic range (1.0 for [0,1] data). Identical images yield +Inf.
func PSNR(a, b *tensor.Tensor, peak float64) float64 {
	mse := MSE(a, b)
	if mse == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(peak*peak/mse)
}

// image4D views an image tensor as NCHW for the SSIM ops: 2D (H, W)
// becomes (1,1,H,W); 3D (C,H,W) becomes (1,C,H,W); 4D passes through.
func image4D(t *tensor.Tensor) *tensor.Tensor {
	switch t.Rank() {
	case 2:
		return t.Reshape(1, 1, t.Shape[0], t.Shape[1])
	case 3:
		return t.Reshape(1, t.Shape[0], t.Shape[1], t.Shape[2])
	case 4:
		return t
	default:
		panic(fmt.Sprintf("metrics: cannot view rank-%d tensor as image", t.Rank()))
	}
}

// SSIM returns the structural similarity index between two images
// (rank 2, 3, or 4), using the canonical 11×11 σ=1.5 Gaussian window.
func SSIM(a, b *tensor.Tensor) float64 {
	cfg := ag.DefaultSSIM()
	return float64(ag.SSIM(ag.Const(image4D(a)), ag.Const(image4D(b)), cfg).Scalar())
}

// MSSSIM returns the multi-scale structural similarity index, using as
// many of the five canonical scales as the image size permits. Images
// smaller than the window return NaN.
func MSSSIM(a, b *tensor.Tensor) float64 {
	cfg := ag.DefaultSSIM()
	a4, b4 := image4D(a), image4D(b)
	scales := ag.MaxMSSSIMScales(a4.Shape[2], a4.Shape[3], cfg.WindowSize)
	if scales == 0 {
		return math.NaN()
	}
	return float64(ag.MSSSIM(ag.Const(a4), ag.Const(b4), cfg, scales).Scalar())
}

// Confusion is a binary confusion matrix (paper Table 9).
type Confusion struct {
	TP, FP, FN, TN int
}

// Confuse tallies predictions (probability ≥ threshold ⇒ positive)
// against binary labels.
func Confuse(probs []float64, labels []bool, threshold float64) Confusion {
	if len(probs) != len(labels) {
		panic("metrics: probs and labels length mismatch")
	}
	var c Confusion
	for i, p := range probs {
		pred := p >= threshold
		switch {
		case pred && labels[i]:
			c.TP++
		case pred && !labels[i]:
			c.FP++
		case !pred && labels[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Accuracy is (TP+TN)/(TP+FP+FN+TN) — Equation 3.
func (c Confusion) Accuracy() float64 {
	n := c.TP + c.FP + c.FN + c.TN
	if n == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(n)
}

// TPR is the true-positive rate (sensitivity/recall) — Equation 4.
func (c Confusion) TPR() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// FPR is the false-positive rate — Equation 5.
func (c Confusion) FPR() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// ROCPoint is one operating point of a receiver operating characteristic
// curve.
type ROCPoint struct {
	Threshold float64
	FPR, TPR  float64
}

// ROC returns the ROC curve swept over every distinct score threshold,
// ordered by increasing FPR (from the (0,0) corner to (1,1)).
func ROC(probs []float64, labels []bool) []ROCPoint {
	if len(probs) != len(labels) {
		panic("metrics: probs and labels length mismatch")
	}
	type scored struct {
		p   float64
		pos bool
	}
	s := make([]scored, len(probs))
	nPos, nNeg := 0, 0
	for i := range probs {
		s[i] = scored{probs[i], labels[i]}
		if labels[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].p > s[j].p })

	curve := []ROCPoint{{Threshold: math.Inf(1), FPR: 0, TPR: 0}}
	tp, fp := 0, 0
	i := 0
	for i < len(s) {
		// Consume ties together so the curve is well defined.
		j := i
		for j < len(s) && s[j].p == s[i].p {
			if s[j].pos {
				tp++
			} else {
				fp++
			}
			j++
		}
		pt := ROCPoint{Threshold: s[i].p}
		if nPos > 0 {
			pt.TPR = float64(tp) / float64(nPos)
		}
		if nNeg > 0 {
			pt.FPR = float64(fp) / float64(nNeg)
		}
		curve = append(curve, pt)
		i = j
	}
	return curve
}

// AUC returns the area under the ROC curve via the trapezoid rule.
// Equivalently it is the probability that a random positive scores above
// a random negative (the Mann–Whitney U statistic).
func AUC(probs []float64, labels []bool) float64 {
	curve := ROC(probs, labels)
	area := 0.0
	for i := 1; i < len(curve); i++ {
		dx := curve[i].FPR - curve[i-1].FPR
		area += dx * (curve[i].TPR + curve[i-1].TPR) / 2
	}
	return area
}

// BestThreshold returns the threshold maximizing Youden's J statistic
// (TPR − FPR), the standard "optimal threshold" choice for a confusion
// matrix like the paper's Table 9 (threshold 0.061).
func BestThreshold(probs []float64, labels []bool) float64 {
	curve := ROC(probs, labels)
	best, bestJ := 0.5, math.Inf(-1)
	for _, pt := range curve[1:] {
		if j := pt.TPR - pt.FPR; j > bestJ {
			bestJ = j
			best = pt.Threshold
		}
	}
	return best
}
