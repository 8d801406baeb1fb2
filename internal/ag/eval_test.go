package ag

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

func sameBits(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestGraphAndEvalShareOneKernel runs every op that has both a graph
// and an eval caller through both, on the same random input, and
// demands identical bits — with the shapes the network-level tests never
// reach: padding > 0, odd extents, batch 3, concat on every axis. It
// runs on one worker and on four, so the kernels' inline and pooled
// dispatches are both compared against each other too; the graph-only
// ops (no eval caller: the eval forwards run them folded, or write
// them in place through nn.Acts) are held to that worker-count
// invariance alone.
func TestGraphAndEvalShareOneKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r := func(shape ...int) *tensor.Tensor { return tensor.New(shape...).RandN(rng, 0, 1) }
	pos := func(shape ...int) *tensor.Tensor { return tensor.New(shape...).RandU(rng, 0.5, 2) }

	x4, x5 := r(3, 4, 7, 9), r(3, 2, 5, 7, 6)
	w3, w1, b3 := r(5, 2, 3, 3, 3), r(5, 2, 1, 1, 1), r(5)
	w2, wT, b2 := r(6, 4, 3, 3), r(4, 6, 5, 5), r(6)
	xl, wl, bl := r(3, 11), r(4, 11), r(4)
	gamma, beta, mean, variance := r(4), r(4), r(4), pos(4)
	c4 := []*tensor.Tensor{r(2, 3, 4, 5), r(2, 3, 1, 5), r(2, 3, 4, 5)} // axis 2 joins different heights
	c5 := []*tensor.Tensor{r(3, 2, 2, 3, 3), r(3, 5, 2, 3, 3)}
	vals := func(ts []*tensor.Tensor) []*Value {
		vs := make([]*Value, len(ts))
		for i, t := range ts {
			vs[i] = Const(t)
		}
		return vs
	}

	ops := []struct {
		name  string
		graph func() *Value
		eval  func(sc *memplan.Scope) *tensor.Tensor // nil: graph only
	}{
		{"maxpool2d k3s2p1",
			func() *Value { return MaxPool2D(Const(x4), Pool2DConfig{3, 2, 1}) }, nil},
		{"maxpool2d k2s2",
			func() *Value { return MaxPool2D(Const(x4), Pool2DConfig{2, 2, 0}) }, nil},
		{"maxpool3d k3s2p1",
			func() *Value { return MaxPool3D(Const(x5), Pool2DConfig{3, 2, 1}) }, nil},
		{"maxpool3d k2s2",
			func() *Value { return MaxPool3D(Const(x5), Pool2DConfig{2, 2, 0}) }, nil},
		{"upsample x2",
			func() *Value { return UpsampleBilinear2D(Const(x4), 2) }, nil},
		{"concat rank 4 axis 2",
			func() *Value { return Concat(2, vals(c4)...) }, nil},
		{"concat rank 5 axis 1",
			func() *Value { return Concat(1, vals(c5)...) }, nil},
		{"concat axis 0",
			func() *Value { return Concat(0, Const(c4[0]), Const(c4[2])) }, nil},
		{"conv3d k3s1p1 bias",
			func() *Value { return Conv3D(Const(x5), Const(w3), Const(b3)) }, nil},
		{"conv3d k1s1p0 no bias",
			func() *Value { return Conv3D(Const(x5), Const(w1), nil) }, nil},
		{"gap3d",
			func() *Value { return GlobalAvgPool3D(Const(x5)) },
			func(sc *memplan.Scope) *tensor.Tensor { return EvalGlobalAvgPool3D(sc, x5) }},
		{"linear bias",
			func() *Value { return Linear(Const(xl), Const(wl), Const(bl)) },
			func(sc *memplan.Scope) *tensor.Tensor { return EvalLinear(sc, xl, wl, bl) }},
		{"linear no bias",
			func() *Value { return Linear(Const(xl), Const(wl), nil) },
			func(sc *memplan.Scope) *tensor.Tensor { return EvalLinear(sc, xl, wl, nil) }},
		{"batchnorm eval rank 4",
			func() *Value {
				return BatchNorm(Const(x4), Const(gamma), Const(beta), mean, variance, false, 0.1, 1e-5)
			}, nil},
		{"conv2d same k3 bias",
			func() *Value { return Conv2D(Const(x4), Const(w2), Const(b2)) }, nil},
		{"deconv2d same k5 bias",
			func() *Value { return ConvTranspose2D(Const(x4), Const(wT), Const(b2)) }, nil},
		{"leakyrelu",
			func() *Value { return LeakyReLU(Const(x4), 0.01) }, nil},
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mem := memplan.New()
	for _, op := range ops {
		runtime.GOMAXPROCS(1)
		want := op.graph().T
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if got := op.graph().T; !sameBits(got, want) {
				t.Errorf("%s: graph op on %d procs differs from 1 proc", op.name, procs)
			}
			if op.eval == nil {
				continue
			}
			sc := mem.NewScope()
			if got := op.eval(sc); !sameBits(got, want) {
				t.Errorf("%s: eval op on %d procs differs from the graph op", op.name, procs)
			}
			sc.Close()
		}
	}
}

// TestMaxPoolBackwardFollowsRecordedArgmax checks, for the 2D and 3D
// max pools with padding, that the argmax the shared kernel records
// names an in-window input holding the output's value, and that the
// graph op's backward scatters each output gradient to exactly that
// input.
func TestMaxPoolBackwardFollowsRecordedArgmax(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	cfg := Pool2DConfig{Kernel: 3, Stride: 2, Padding: 1}
	cases := []struct {
		name    string
		x       *tensor.Tensor
		graph   func(x *Value) *Value
		forward func(x *tensor.Tensor) (*tensor.Tensor, []int32)
	}{
		{"maxpool2d", tensor.New(3, 2, 7, 9).RandN(rng, 0, 1),
			func(x *Value) *Value { return MaxPool2D(x, cfg) },
			func(x *tensor.Tensor) (*tensor.Tensor, []int32) { return maxPool(x, cfg, 0) }},
		{"maxpool3d", tensor.New(3, 2, 5, 7, 6).RandN(rng, 0, 1),
			func(x *Value) *Value { return MaxPool3D(x, cfg) },
			func(x *tensor.Tensor) (*tensor.Tensor, []int32) { return maxPool(x, cfg, 0) }},
	}
	for _, c := range cases {
		out, argmax := c.forward(c.x)
		planes := c.x.Shape[0] * c.x.Shape[1]
		planeIn, planeOut := len(c.x.Data)/planes, len(out.Data)/planes
		for i, idx := range argmax {
			if idx < 0 || int(idx)/planeIn != i/planeOut {
				t.Fatalf("%s: output %d records argmax %d outside its plane", c.name, i, idx)
			}
			if c.x.Data[idx] != out.Data[i] {
				t.Fatalf("%s: output %d = %v but its argmax holds %v", c.name, i, out.Data[i], c.x.Data[idx])
			}
		}

		x := Param(c.x)
		y := c.graph(x)
		if !sameBits(y.T, out) {
			t.Fatalf("%s: graph forward differs from the kernel's", c.name)
		}
		gy := tensor.New(out.Shape...).RandN(rng, 0, 1)
		Sum(Mul(y, Const(gy))).Backward()
		want := make([]float32, len(c.x.Data))
		for i, idx := range argmax {
			want[idx] += gy.Data[i]
		}
		for i := range want {
			if x.Grad.Data[i] != want[i] {
				t.Fatalf("%s: grad[%d] = %v, want %v (gradient did not follow the recorded argmax)",
					c.name, i, x.Grad.Data[i], want[i])
			}
		}
	}
}
