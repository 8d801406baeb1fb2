package ag

import (
	"fmt"
	"math"

	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// Forward kernels. Each op that runs on both the autograd tape and the
// eval forwards' plain tensors has its forward arithmetic written
// exactly once, here, as an Eval* function. There are two callers. The
// eval path passes a memplan.Scope: the output is drawn from it, no
// tape is built, and a warm arena makes the call allocation-free. The
// graph op of the same name passes a nil scope — the output is then a
// fresh heap tensor the tape owns — checks its operands' ranks first,
// and attaches the backward pass. Both therefore produce the same bits
// by construction; TestGraphAndEvalShareOneKernel pins it. The
// convolutions, BatchNorm and LeakyReLU have no Eval* form: the eval
// forwards run them folded, through nn.Trunk's compiled plan.
//
// The max pools and bilinear up-sample are shape handling here around
// their one loop in internal/kernels, which splits tiles or planes
// across workers itself.

// output returns the tensor a forward kernel writes into: pooled from
// sc on the eval path, fresh from the heap when sc is nil.
func output(sc *memplan.Scope, shape ...int) *tensor.Tensor {
	if sc == nil {
		return tensor.New(shape...)
	}
	return sc.Get(shape...)
}

// EvalMaxPool2D max-pools each (H, W) plane of a (N, C, H, W) tensor
// on up to workers workers (0: the default count); padded cells act as
// -inf.
func EvalMaxPool2D(sc *memplan.Scope, x *tensor.Tensor, cfg Pool2DConfig, workers int) *tensor.Tensor {
	out, _ := maxPool(sc, x, cfg, false, workers)
	return out
}

// EvalMaxPool3D max-pools (N, C, D, H, W) volumes with a cubic kernel.
func EvalMaxPool3D(sc *memplan.Scope, x *tensor.Tensor, cfg Pool2DConfig) *tensor.Tensor {
	out, _ := maxPool(sc, x, cfg, false, 0)
	return out
}

// maxPool is the max-pool forward of a rank-4 (N, C, H, W) or rank-5
// (N, C, D, H, W) tensor; with record set it also returns each
// output's argmax for the graph op's backward scatter.
func maxPool(sc *memplan.Scope, x *tensor.Tensor, cfg Pool2DConfig, record bool, workers int) (*tensor.Tensor, []int32) {
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
		out = output(sc, sh[0], sh[1], od, oh, ow)
	} else {
		out = output(sc, sh[0], sh[1], oh, ow)
	}
	var argmax []int32
	if record {
		argmax = make([]int32, len(out.Data))
	}
	kernels.MaxPool(x.Data, out.Data, argmax, s, workers)
	return out, argmax
}

// EvalUpsampleBilinear2D resamples each (H, W) plane with bilinear
// interpolation to the size the caller's axis tables (cached per shape
// on the serving path) were built for, on up to workers workers (0: the
// default count).
func EvalUpsampleBilinear2D(sc *memplan.Scope, x *tensor.Tensor, ty, tx *kernels.BilinearTable, workers int) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := output(sc, n, c, len(ty.Lo), len(tx.Lo))
	kernels.Upsample(x.Data, out.Data, n*c, h, w, ty, tx, workers)
	return out
}

// EvalConcat joins vs along axis; all other dimensions must match. It
// returns the input itself (not a copy) when vs has one element, so
// the result is scope-owned only when it is fresh.
func EvalConcat(sc *memplan.Scope, axis int, vs []*tensor.Tensor) *tensor.Tensor {
	if len(vs) == 0 {
		panic("ag: Concat of zero tensors")
	}
	if len(vs) == 1 {
		return vs[0]
	}
	rank := vs[0].Rank()
	var shapeArr [8]int
	outShape := shapeArr[:rank]
	copy(outShape, vs[0].Shape)
	outShape[axis] = 0
	for _, v := range vs {
		if v.Rank() != rank {
			panic("ag: Concat rank mismatch")
		}
		for d := 0; d < rank; d++ {
			if d != axis && v.Shape[d] != vs[0].Shape[d] {
				panic("ag: Concat non-axis dimension mismatch")
			}
		}
		outShape[axis] += v.Shape[axis]
	}
	out := output(sc, outShape...)
	// Copy each input block into its slot along the axis.
	outer, inner := concatExtents(outShape, axis)
	outAxis := outShape[axis]
	offset := 0
	for _, v := range vs {
		ax := v.Shape[axis]
		for o := 0; o < outer; o++ {
			src := v.Data[o*ax*inner : (o+1)*ax*inner]
			dst := out.Data[(o*outAxis+offset)*inner : (o*outAxis+offset)*inner+ax*inner]
			copy(dst, src)
		}
		offset += ax
	}
	return out
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
