package ag

import (
	"fmt"
	"math"

	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// Forward kernels. The classifier head's ops (global average pool,
// linear) have their forward written once, here, as an Eval* function
// with two callers: the eval path passes a memplan.Scope the output is
// drawn from, and the graph op of the same name a nil scope, for a
// fresh tensor the tape owns; TestGraphAndEvalShareOneKernel pins
// their bits equal. The other ops' eval forms are the plan forwards'
// own: convolutions, BatchNorm and LeakyReLU run folded (nn.Trunk's
// plan), and the pools, up-sample and concats are written straight
// into the layout their reader takes (nn.Acts). The graph op's max
// pool forward is below.

// output returns the tensor a forward kernel writes into: pooled from
// sc on the eval path, fresh from the heap when sc is nil.
func output(sc *memplan.Scope, shape ...int) *tensor.Tensor {
	if sc == nil {
		return tensor.New(shape...)
	}
	return sc.Get(shape...)
}

// maxPool is the max-pool forward of a rank-4 (N, C, H, W) or rank-5
// (N, C, D, H, W) tensor on up to workers workers (0: the default
// count), padded cells acting as -inf, and each output's argmax for the
// graph op's backward scatter.
func maxPool(x *tensor.Tensor, cfg Pool2DConfig, workers int) (*tensor.Tensor, []int32) {
	sh := x.Shape
	r := len(sh)
	s := kernels.PoolShape{C: sh[0] * sh[1], H: sh[r-2], W: sh[r-1], K: cfg.Kernel, S: cfg.Stride, P: cfg.Padding}
	if r == 5 {
		s.D = sh[2]
	}
	od, oh, ow := s.Out()
	if od <= 0 || oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("ag: max pool %+v of %v output would be empty", cfg, sh))
	}
	var out *tensor.Tensor
	if r == 5 {
		out = tensor.New(sh[0], sh[1], od, oh, ow)
	} else {
		out = tensor.New(sh[0], sh[1], oh, ow)
	}
	argmax := make([]int32, len(out.Data))
	kernels.MaxPool(x.Data, out.Data, argmax, s, workers)
	return out, argmax
}

// concatExtents splits a concat output shape around the axis: outer is
// the product of the dimensions before it, inner of those after.
func concatExtents(shape []int, axis int) (outer, inner int) {
	outer, inner = 1, 1
	for _, d := range shape[:axis] {
		outer *= d
	}
	for _, d := range shape[axis+1:] {
		inner *= d
	}
	return outer, inner
}

// EvalGlobalAvgPool3D averages each channel's (D, H, W) volume down to
// a single value, producing (N, C).
func EvalGlobalAvgPool3D(sc *memplan.Scope, x *tensor.Tensor) *tensor.Tensor {
	n, c := x.Shape[0], x.Shape[1]
	spatial := x.Shape[2] * x.Shape[3] * x.Shape[4]
	out := output(sc, n, c)
	for plane := 0; plane < n*c; plane++ {
		var acc float64
		base := plane * spatial
		for i := 0; i < spatial; i++ {
			acc += float64(x.Data[base+i])
		}
		out.Data[plane] = float32(acc / float64(spatial))
	}
	return out
}

// EvalLinear computes x·wᵀ + b for x (N, In) and w (Out, In); b may be
// nil.
func EvalLinear(sc *memplan.Scope, x, w, b *tensor.Tensor) *tensor.Tensor {
	n, in := x.Shape[0], x.Shape[1]
	outF := w.Shape[0]
	out := output(sc, n, outF)
	xd, wd, od := x.Data, w.Data, out.Data
	for ni := 0; ni < n; ni++ {
		for o := 0; o < outF; o++ {
			var acc float32
			if b != nil {
				acc = b.Data[o]
			}
			xrow := ni * in
			wrow := o * in
			for i := 0; i < in; i++ {
				acc += xd[xrow+i] * wd[wrow+i]
			}
			od[ni*outF+o] = acc
		}
	}
	return out
}

// EvalSigmoid computes Sigmoid's elementwise map on one value.
func EvalSigmoid(v float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(v))))
}
