package ag

import (
	"fmt"
	"math"

	"computecovid19/internal/tensor"
)

// Softmax applies a row-wise softmax to a (N, C) tensor, with the usual
// max-subtraction for numerical stability. It backs the multi-class
// severity-grading extension of the classifier.
func Softmax(a *Value) *Value {
	if a.T.Rank() != 2 {
		panic(fmt.Sprintf("ag: Softmax wants a rank-2 (N, C) tensor, got %v", a.T.Shape))
	}
	n, c := a.T.Shape[0], a.T.Shape[1]
	out := tensor.New(n, c)
	for i := 0; i < n; i++ {
		row := a.T.Data[i*c : (i+1)*c]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		o := out.Data[i*c : (i+1)*c]
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			o[j] = float32(e)
			sum += e
		}
		for j := range o {
			o[j] /= float32(sum)
		}
	}
	var node *Value
	node = newNode("softmax", out, func() {
		if a.needGrad {
			g := a.ensureGrad().Data
			gy := node.Grad.Data
			// dL/dx_j = y_j·(dL/dy_j − Σ_k dL/dy_k·y_k)
			for i := 0; i < n; i++ {
				y := out.Data[i*c : (i+1)*c]
				d := gy[i*c : (i+1)*c]
				var dot float32
				for k := range y {
					dot += d[k] * y[k]
				}
				for j := range y {
					g[i*c+j] += y[j] * (d[j] - dot)
				}
			}
		}
	}, a)
	return node
}

// CrossEntropyLoss computes the mean negative log-likelihood of integer
// class labels under row-wise softmax of (N, C) logits, fused for
// stability (log-sum-exp form).
func CrossEntropyLoss(logits *Value, labels []int) *Value {
	if logits.T.Rank() != 2 {
		panic(fmt.Sprintf("ag: CrossEntropyLoss wants rank-2 logits, got %v", logits.T.Shape))
	}
	n, c := logits.T.Shape[0], logits.T.Shape[1]
	if len(labels) != n {
		panic(fmt.Sprintf("ag: CrossEntropyLoss got %d labels for %d rows", len(labels), n))
	}
	for _, l := range labels {
		if l < 0 || l >= c {
			panic(fmt.Sprintf("ag: label %d out of range [0, %d)", l, c))
		}
	}

	// Forward: mean over rows of (logsumexp(row) − row[label]).
	probs := make([]float32, n*c) // softmax retained for backward
	total := 0.0
	for i := 0; i < n; i++ {
		row := logits.T.Data[i*c : (i+1)*c]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for _, v := range row {
			sum += math.Exp(float64(v - maxV))
		}
		lse := float64(maxV) + math.Log(sum)
		total += lse - float64(row[labels[i]])
		for j, v := range row {
			probs[i*c+j] = float32(math.Exp(float64(v-maxV)) / sum)
		}
	}
	out := tensor.Scalar(float32(total / float64(n)))

	var node *Value
	node = newNode("crossentropy", out, func() {
		if logits.needGrad {
			g := logits.ensureGrad().Data
			d := node.Grad.Data[0] / float32(n)
			for i := 0; i < n; i++ {
				for j := 0; j < c; j++ {
					grad := probs[i*c+j]
					if j == labels[i] {
						grad -= 1
					}
					g[i*c+j] += d * grad
				}
			}
		}
	}, logits)
	return node
}
