package nn

import (
	"math"

	"computecovid19/internal/ag"
	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// Infer methods run each layer's eval-mode forward on plain tensors
// drawn from a memplan.Scope, building no autograd tape and allocating
// nothing on a warm arena. Every method computes bit-identical results
// to the corresponding Forward in eval mode (same loop order, same
// float32/float64 conversions); the identity is pinned by tests in
// ddnet and classify. Callers own their input tensor: a layer never
// frees x, only the intermediates it creates.

// Infer applies the (transposed) convolution on the pooled eval path.
func (l *Conv2D) Infer(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	if l.Transposed {
		return ag.EvalConvTranspose2D(sc, x, l.W.T, biasTensor(l.B), l.Cfg)
	}
	return ag.EvalConv2D(sc, x, l.W.T, biasTensor(l.B), l.Cfg)
}

// Infer applies the 3D convolution on the pooled eval path.
func (l *Conv3D) Infer(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	return ag.EvalConv3D(sc, x, l.W.T, biasTensor(l.B), l.Cfg)
}

func biasTensor(b *ag.Value) *tensor.Tensor {
	if b == nil {
		return nil
	}
	return b.T
}

// Infer normalizes x with the running statistics. The layer must be in
// eval mode: batch statistics would mutate the running buffers, which
// is never wanted on a serving path.
func (l *BatchNorm) Infer(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	if l.training {
		panic("nn: BatchNorm.Infer requires eval mode (call SetTraining(false))")
	}
	n := x.Shape[0]
	c := x.Shape[1]
	spatial := 1
	for _, d := range x.Shape[2:] {
		spatial *= d
	}
	out := sc.Get(x.Shape...)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			base := (ni*c + ci) * spatial
			g := l.Gamma.T.Data[ci]
			b := l.Beta.T.Data[ci]
			// Same float64 round trip as ag.BatchNorm's eval branch:
			// the running mean survives it exactly, and the inverse
			// std is computed in float64 before narrowing.
			mu := float32(float64(l.RunningMean.Data[ci]))
			is := float32(1.0 / math.Sqrt(float64(l.RunningVar.Data[ci])+float64(l.Eps)))
			for i := 0; i < spatial; i++ {
				xh := (x.Data[base+i] - mu) * is
				out.Data[base+i] = g*xh + b
			}
		}
	}
	return out
}

// Infer applies x·Wᵀ + b on the pooled eval path.
func (l *Linear) Infer(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	return ag.EvalLinear(sc, x, l.W.T, l.B.T)
}

// Infer runs BN→ReLU→1³→BN→ReLU→k³, freeing every intermediate as soon
// as its consumer has run (ReLU is LeakyReLU with slope 0, matching
// ag.ReLU bit for bit). The activations mutate fresh BN outputs in
// place, which is safe because the graph twin is out-of-place and the
// BN output has no other reader.
func (l *DenseLayer3D) Infer(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	h := l.BN1.Infer(sc, x)
	ag.EvalLeakyReLUInPlace(h, 0)
	h2 := l.Conv1.Infer(sc, h)
	sc.Free(h)
	h3 := l.BN2.Infer(sc, h2)
	sc.Free(h2)
	ag.EvalLeakyReLUInPlace(h3, 0)
	out := l.Conv2.Infer(sc, h3)
	sc.Free(h3)
	return out
}

// Infer runs the 3D dense connectivity pattern on the pooled eval path.
// The feature list lives in a stack array for classifier-sized blocks
// (≤ 7 layers); intermediate concats are freed once consumed.
func (b *DenseBlock3D) Infer(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	var featArr [8]*tensor.Tensor
	features := append(featArr[:0], x)
	for _, l := range b.Layers {
		in := ag.EvalConcat(sc, 1, features)
		y := l.Infer(sc, in)
		if in != x {
			sc.Free(in)
		}
		features = append(features, y)
	}
	out := ag.EvalConcat(sc, 1, features)
	for _, f := range features[1:] {
		sc.Free(f)
	}
	return out
}
