package ag

import (
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/tensor"
)

// gradCheck verifies the analytic gradient of a scalar-valued function
// against central finite differences for every listed leaf.
//
// build must construct the graph from the leaves and return the scalar
// output; it is re-invoked for each probe so the forward pass sees the
// perturbed data.
func gradCheck(t *testing.T, name string, leaves []*Value, build func() *Value, tol float64) {
	t.Helper()

	out := build()
	for _, l := range leaves {
		l.ZeroGrad()
	}
	out.Backward()

	analytic := make([][]float32, len(leaves))
	for i, l := range leaves {
		if l.Grad == nil {
			t.Fatalf("%s: leaf %d has nil grad after backward", name, i)
		}
		analytic[i] = append([]float32(nil), l.Grad.Data...)
	}

	const h = 1e-3
	for li, l := range leaves {
		for ei := range l.T.Data {
			orig := l.T.Data[ei]
			l.T.Data[ei] = orig + h
			fp := float64(build().Scalar())
			l.T.Data[ei] = orig - h
			fm := float64(build().Scalar())
			l.T.Data[ei] = orig
			numeric := (fp - fm) / (2 * h)
			got := float64(analytic[li][ei])
			diff := math.Abs(got - numeric)
			scale := math.Max(1, math.Max(math.Abs(got), math.Abs(numeric)))
			if diff/scale > tol {
				t.Errorf("%s: leaf %d elem %d: analytic %.6g vs numeric %.6g (rel %.3g)",
					name, li, ei, got, numeric, diff/scale)
				if diff/scale > 10*tol {
					t.FailNow()
				}
			}
		}
	}
}

func randParam(rng *rand.Rand, shape ...int) *Value {
	return Param(tensor.New(shape...).RandN(rng, 0, 1))
}

func randPosParam(rng *rand.Rand, shape ...int) *Value {
	return Param(tensor.New(shape...).RandU(rng, 0.5, 2.0))
}

func TestGradElementwiseBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randParam(rng, 2, 3)
	b := randPosParam(rng, 2, 3)
	gradCheck(t, "add", []*Value{a, b}, func() *Value { return Mean(Add(a, b)) }, 1e-3)
	gradCheck(t, "sub", []*Value{a, b}, func() *Value { return Mean(Square(Sub(a, b))) }, 1e-2)
	gradCheck(t, "mul", []*Value{a, b}, func() *Value { return Mean(Mul(a, b)) }, 1e-3)
	gradCheck(t, "div", []*Value{a, b}, func() *Value { return Mean(Div(a, b)) }, 1e-2)
}

func TestGradElementwiseUnary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randPosParam(rng, 3, 2)
	gradCheck(t, "square", []*Value{a}, func() *Value { return Mean(Square(a)) }, 1e-2)
	gradCheck(t, "sqrt", []*Value{a}, func() *Value { return Mean(Sqrt(a)) }, 1e-2)
	gradCheck(t, "pow1.5", []*Value{a}, func() *Value { return Mean(PowConst(a, 1.5)) }, 1e-2)
	gradCheck(t, "exp", []*Value{a}, func() *Value { return Mean(Exp(a)) }, 1e-2)
	gradCheck(t, "log", []*Value{a}, func() *Value { return Mean(Log(a)) }, 1e-2)
	gradCheck(t, "sigmoid", []*Value{a}, func() *Value { return Mean(Sigmoid(a)) }, 1e-2)
	gradCheck(t, "tanh", []*Value{a}, func() *Value { return Mean(Tanh(a)) }, 1e-2)
	gradCheck(t, "addconst", []*Value{a}, func() *Value { return Mean(AddConst(a, 3)) }, 1e-3)
	gradCheck(t, "mulconst", []*Value{a}, func() *Value { return Mean(MulConst(a, -2)) }, 1e-3)
	gradCheck(t, "sum", []*Value{a}, func() *Value { return Sum(a) }, 1e-3)
}

func TestGradActivationsAwayFromKinks(t *testing.T) {
	// Keep inputs away from 0 so finite differences don't straddle the
	// ReLU/abs kinks.
	data := []float32{-2, -1, 0.5, 1.5, -0.7, 2.2}
	a := Param(tensor.FromSlice(append([]float32(nil), data...), 2, 3))
	gradCheck(t, "leakyrelu", []*Value{a}, func() *Value { return Mean(LeakyReLU(a, 0.01)) }, 1e-2)
	gradCheck(t, "relu", []*Value{a}, func() *Value { return Mean(ReLU(a)) }, 1e-2)
	gradCheck(t, "abs", []*Value{a}, func() *Value { return Mean(Abs(a)) }, 1e-2)
	b := Param(tensor.FromSlice([]float32{-3, -0.5, 0.2, 0.8, 1.5, 3}, 6))
	gradCheck(t, "clamp", []*Value{b}, func() *Value { return Mean(Clamp(b, -1, 1)) }, 1e-2)
}

func TestGradConcatReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randParam(rng, 1, 2, 2, 2)
	b := randParam(rng, 1, 3, 2, 2)
	gradCheck(t, "concat", []*Value{a, b}, func() *Value {
		return Mean(Square(Concat(1, a, b)))
	}, 1e-2)
	gradCheck(t, "reshape", []*Value{a}, func() *Value {
		return Mean(Square(Reshape(a, 2, 4)))
	}, 1e-2)
}

func TestGradConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randParam(rng, 2, 2, 5, 5)
	w := randParam(rng, 3, 2, 3, 3)
	b := randParam(rng, 3)
	gradCheck(t, "conv2d_s1p1", []*Value{x, w, b}, func() *Value {
		return Mean(Square(Conv2D(x, w, b, Conv2DConfig{Stride: 1, Padding: 1})))
	}, 2e-2)
	gradCheck(t, "conv2d_s2p0", []*Value{x, w, b}, func() *Value {
		return Mean(Square(Conv2D(x, w, b, Conv2DConfig{Stride: 2, Padding: 0})))
	}, 2e-2)
	gradCheck(t, "conv2d_nobias", []*Value{x, w}, func() *Value {
		return Mean(Square(Conv2D(x, w, nil, Conv2DConfig{Stride: 1, Padding: 0})))
	}, 2e-2)
}

func TestGradConvTranspose2D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := randParam(rng, 1, 2, 4, 4)
	w := randParam(rng, 2, 3, 3, 3) // (Cin, Cout, KH, KW)
	b := randParam(rng, 3)
	gradCheck(t, "convT_s1p1", []*Value{x, w, b}, func() *Value {
		return Mean(Square(ConvTranspose2D(x, w, b, Conv2DConfig{Stride: 1, Padding: 1})))
	}, 2e-2)
	gradCheck(t, "convT_s2p0", []*Value{x, w, b}, func() *Value {
		return Mean(Square(ConvTranspose2D(x, w, b, Conv2DConfig{Stride: 2, Padding: 0})))
	}, 2e-2)
}

func TestConvTranspose2DAdjointOfConv(t *testing.T) {
	// <conv(x), y> must equal <x, convT(y)> when they share weights:
	// transposed convolution is by definition the adjoint map.
	// 7x7 with k=3, s=2, p=1 gives a 4x4 output whose transpose maps
	// back to exactly 7x7, so the inner products are comparable.
	rng := rand.New(rand.NewSource(6))
	x := tensor.New(1, 2, 7, 7).RandN(rng, 0, 1)
	w := tensor.New(3, 2, 3, 3).RandN(rng, 0, 1)
	cfg := Conv2DConfig{Stride: 2, Padding: 1}
	cx := Conv2D(Const(x), Const(w), nil, cfg)
	y := tensor.New(cx.T.Shape...).RandN(rng, 0, 1)

	// w viewed as (Cin=3 → 2) for the transpose direction requires the
	// (Cin, Cout, KH, KW) layout; build it by permuting.
	wt := tensor.New(3, 2, 3, 3)
	copy(wt.Data, w.Data)
	ty := ConvTranspose2D(Const(y.Reshape(y.Shape...)), Const(wt), nil, cfg)

	lhs := cx.T.Dot(y)
	rhs := x.Dot(ty.T)
	if math.Abs(lhs-rhs) > 1e-2*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: <conv x, y>=%.6f, <x, convT y>=%.6f", lhs, rhs)
	}
}

func TestGradPooling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := randParam(rng, 1, 2, 6, 6)
	gradCheck(t, "maxpool_k3s2p1", []*Value{x}, func() *Value {
		return Mean(Square(MaxPool2D(x, Pool2DConfig{Kernel: 3, Stride: 2, Padding: 1})))
	}, 2e-2)
	gradCheck(t, "avgpool_k2s2", []*Value{x}, func() *Value {
		return Mean(Square(AvgPool2D(x, Pool2DConfig{Kernel: 2, Stride: 2})))
	}, 2e-2)
	gradCheck(t, "upsample2", []*Value{x}, func() *Value {
		return Mean(Square(UpsampleBilinear2D(x, 2)))
	}, 2e-2)
}

func TestGradBlur2D(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := randParam(rng, 1, 1, 5, 5)
	win := GaussianWindow(3, 1.0)
	gradCheck(t, "blur_valid", []*Value{x}, func() *Value {
		return Mean(Square(Blur2D(x, win, 0)))
	}, 2e-2)
	gradCheck(t, "blur_same", []*Value{x}, func() *Value {
		return Mean(Square(Blur2D(x, win, 1)))
	}, 2e-2)
}

func TestGradBatchNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randParam(rng, 2, 3, 2, 2)
	gamma := randPosParam(rng, 3)
	beta := randParam(rng, 3)
	// Fresh running stats each build call so updates don't accumulate.
	gradCheck(t, "batchnorm_train", []*Value{x, gamma, beta}, func() *Value {
		rm := tensor.New(3)
		rv := tensor.New(3).Fill(1)
		return Mean(Square(BatchNorm(x, gamma, beta, rm, rv, true, 0.1, 1e-5)))
	}, 3e-2)
	rm := tensor.New(3).RandN(rng, 0, 0.5)
	rv := tensor.New(3).RandU(rng, 0.5, 2)
	gradCheck(t, "batchnorm_eval", []*Value{x, gamma, beta}, func() *Value {
		return Mean(Square(BatchNorm(x, gamma, beta, rm, rv, false, 0.1, 1e-5)))
	}, 2e-2)
}

func TestGradLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x := randParam(rng, 3, 4)
	w := randParam(rng, 2, 4)
	b := randParam(rng, 2)
	gradCheck(t, "linear", []*Value{x, w, b}, func() *Value {
		return Mean(Square(Linear(x, w, b)))
	}, 2e-2)
}

func TestGradConv3D(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randParam(rng, 1, 2, 3, 4, 4)
	w := randParam(rng, 2, 2, 3, 3, 3)
	b := randParam(rng, 2)
	gradCheck(t, "conv3d_s1p1", []*Value{x, w, b}, func() *Value {
		return Mean(Square(Conv3D(x, w, b, Conv3DConfig{Stride: 1, Padding: 1})))
	}, 2e-2)
	w1 := randParam(rng, 3, 2, 1, 1, 1)
	gradCheck(t, "conv3d_k1", []*Value{x, w1}, func() *Value {
		return Mean(Square(Conv3D(x, w1, nil, Conv3DConfig{Stride: 1, Padding: 0})))
	}, 2e-2)
}

func TestGradPool3D(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := randParam(rng, 1, 2, 4, 4, 4)
	gradCheck(t, "maxpool3d", []*Value{x}, func() *Value {
		return Mean(Square(MaxPool3D(x, Pool2DConfig{Kernel: 2, Stride: 2})))
	}, 2e-2)
	gradCheck(t, "gap3d", []*Value{x}, func() *Value {
		return Mean(Square(GlobalAvgPool3D(x)))
	}, 2e-2)
}

func TestGradLosses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pred := randParam(rng, 2, 4)
	target := Const(tensor.New(2, 4).RandN(rng, 0, 1))
	gradCheck(t, "mse", []*Value{pred}, func() *Value { return MSELoss(pred, target) }, 1e-2)

	probs := Param(tensor.FromSlice([]float32{0.2, 0.7, 0.4, 0.9}, 4))
	labels := Const(tensor.FromSlice([]float32{0, 1, 1, 1}, 4))
	gradCheck(t, "bce", []*Value{probs}, func() *Value { return BCELoss(probs, labels) }, 1e-2)

	logits := Param(tensor.FromSlice([]float32{-1.5, 0.3, 2.0, -0.4}, 4))
	gradCheck(t, "bce_logits", []*Value{logits}, func() *Value {
		return BCEWithLogitsLoss(logits, labels)
	}, 1e-2)
}

func TestGradSSIM(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := Param(tensor.New(1, 1, 13, 13).RandU(rng, 0.2, 0.8))
	y := Param(tensor.New(1, 1, 13, 13).RandU(rng, 0.2, 0.8))
	cfg := DefaultSSIM()
	gradCheck(t, "ssim", []*Value{x, y}, func() *Value { return SSIM(x, y, cfg) }, 5e-2)
}

func TestGradMSSSIMSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	cfg := SSIMConfig{WindowSize: 3, Sigma: 1.0, L: 1, K1: 0.01, K2: 0.03}
	x := Param(tensor.New(1, 1, 8, 8).RandU(rng, 0.2, 0.8))
	y := Param(tensor.New(1, 1, 8, 8).RandU(rng, 0.2, 0.8))
	gradCheck(t, "msssim2", []*Value{x, y}, func() *Value { return MSSSIM(x, y, cfg, 2) }, 5e-2)
}

func TestGradCompositeLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cfg := SSIMConfig{WindowSize: 3, Sigma: 1.0, L: 1, K1: 0.01, K2: 0.03}
	pred := Param(tensor.New(1, 1, 8, 8).RandU(rng, 0.2, 0.8))
	target := Const(tensor.New(1, 1, 8, 8).RandU(rng, 0.2, 0.8))
	gradCheck(t, "composite", []*Value{pred}, func() *Value {
		return CompositeEnhancementLoss(pred, target, cfg)
	}, 5e-2)
}
