package ag

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"computecovid19/internal/tensor"
)

func TestBackwardRequiresScalar(t *testing.T) {
	x := Param(tensor.New(2, 2))
	y := Square(x)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-scalar Backward")
		}
	}()
	y.Backward()
}

func TestConstStopsGradient(t *testing.T) {
	x := Const(tensor.FromSlice([]float32{1, 2}, 2))
	y := Mean(Square(x))
	if y.NeedGrad() {
		t.Fatal("graph of constants should not need grad")
	}
	y.Backward() // must be a no-op, not a panic
	if x.Grad != nil {
		t.Fatal("const leaf received a gradient")
	}
}

func TestGradAccumulatesAcrossFanOut(t *testing.T) {
	// y = mean(x + x) → dy/dx = 2/n per element.
	x := Param(tensor.FromSlice([]float32{1, 2, 3, 4}, 4))
	Mean(Add(x, x)).Backward()
	for i, g := range x.Grad.Data {
		if math.Abs(float64(g)-0.5) > 1e-6 {
			t.Fatalf("grad[%d] = %v, want 0.5", i, g)
		}
	}
}

func TestZeroGradBetweenSteps(t *testing.T) {
	x := Param(tensor.FromSlice([]float32{3}, 1))
	Sum(x).Backward()
	Sum(x).Backward()
	if x.Grad.Data[0] != 2 {
		t.Fatalf("grad accumulated = %v, want 2 (two backward passes)", x.Grad.Data[0])
	}
	x.ZeroGrad()
	if x.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad did not clear")
	}
}

func TestDetachCutsTape(t *testing.T) {
	x := Param(tensor.FromSlice([]float32{2}, 1))
	y := Square(x).Detach()
	z := Sum(Square(y))
	if z.NeedGrad() {
		t.Fatal("detached graph should not need grad")
	}
}

func TestConv2DKnownValues(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, no pad, stride 1 → each output is
	// the sum of a 2x2 block.
	x := Const(tensor.FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3))
	w := Const(tensor.FromSlice([]float32{1, 1, 1, 1}, 1, 1, 2, 2))
	y := Conv2D(x, w, nil, Conv2DConfig{Stride: 1})
	want := []float32{12, 16, 24, 28}
	for i, v := range want {
		if y.T.Data[i] != v {
			t.Fatalf("conv out[%d] = %v, want %v", i, y.T.Data[i], v)
		}
	}
}

func TestConv2DOutputShape(t *testing.T) {
	x := Const(tensor.New(2, 3, 16, 16))
	w := Const(tensor.New(8, 3, 7, 7))
	y := Conv2D(x, w, nil, Conv2DConfig{Stride: 1, Padding: 3})
	wantShape := []int{2, 8, 16, 16}
	for i, d := range wantShape {
		if y.T.Shape[i] != d {
			t.Fatalf("shape = %v, want %v", y.T.Shape, wantShape)
		}
	}
}

func TestConvTranspose2DUpsamples(t *testing.T) {
	x := Const(tensor.New(1, 1, 4, 4).Fill(1))
	w := Const(tensor.New(1, 1, 2, 2).Fill(1))
	y := ConvTranspose2D(x, w, nil, Conv2DConfig{Stride: 2})
	if y.T.Shape[2] != 8 || y.T.Shape[3] != 8 {
		t.Fatalf("convT shape = %v, want 8x8 spatial", y.T.Shape)
	}
	// Stride-2 scatter of a 2x2 ones kernel tiles without overlap: all 1s.
	for i, v := range y.T.Data {
		if v != 1 {
			t.Fatalf("convT out[%d] = %v, want 1", i, v)
		}
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	x := Const(tensor.FromSlice([]float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4))
	y := MaxPool2D(x, Pool2DConfig{Kernel: 2, Stride: 2})
	want := []float32{6, 8, 14, 16}
	for i, v := range want {
		if y.T.Data[i] != v {
			t.Fatalf("maxpool out[%d] = %v, want %v", i, y.T.Data[i], v)
		}
	}
}

func TestMaxPoolDDnetHalvesSize(t *testing.T) {
	// Paper Table 2: pooling with 3x3 filter, stride 2 halves 512→256.
	x := Const(tensor.New(1, 16, 32, 32))
	y := MaxPool2D(x, Pool2DConfig{Kernel: 3, Stride: 2, Padding: 1})
	if y.T.Shape[2] != 16 || y.T.Shape[3] != 16 {
		t.Fatalf("pool shape = %v, want spatial 16x16", y.T.Shape)
	}
}

func TestUpsampleBilinearValues(t *testing.T) {
	x := Const(tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2))
	y := UpsampleBilinear2D(x, 2)
	if y.T.Shape[2] != 4 || y.T.Shape[3] != 4 {
		t.Fatalf("upsample shape = %v", y.T.Shape)
	}
	// Corners replicate the corner values under half-pixel mapping.
	if y.T.At(0, 0, 0, 0) != 1 || y.T.At(0, 0, 3, 3) != 4 {
		t.Fatalf("upsample corners = %v, %v; want 1, 4",
			y.T.At(0, 0, 0, 0), y.T.At(0, 0, 3, 3))
	}
	// The mean must be preserved by bilinear interpolation of this ramp.
	if math.Abs(y.T.Mean()-2.5) > 1e-6 {
		t.Fatalf("upsample mean = %v, want 2.5", y.T.Mean())
	}
}

func TestUpsampleThenPoolRoundTrip(t *testing.T) {
	// avgpool(upsample(x)) == x for factor 2 on smooth (constant) input.
	x := Const(tensor.New(1, 1, 4, 4).Fill(3.5))
	up := UpsampleBilinear2D(x, 2)
	down := AvgPool2D(up, Pool2DConfig{Kernel: 2, Stride: 2})
	if !down.T.AllClose(x.T, 1e-6) {
		t.Fatal("upsample→avgpool does not round-trip a constant image")
	}
}

func TestConcatValues(t *testing.T) {
	a := Const(tensor.FromSlice([]float32{1, 2}, 1, 1, 1, 2))
	b := Const(tensor.FromSlice([]float32{3, 4, 5, 6}, 1, 2, 1, 2))
	y := Concat(1, a, b)
	if y.T.Shape[1] != 3 {
		t.Fatalf("concat channels = %d, want 3", y.T.Shape[1])
	}
	want := []float32{1, 2, 3, 4, 5, 6}
	for i, v := range want {
		if y.T.Data[i] != v {
			t.Fatalf("concat out[%d] = %v, want %v", i, y.T.Data[i], v)
		}
	}
}

func TestBatchNormNormalizes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := Const(tensor.New(4, 2, 3, 3).RandN(rng, 5, 3))
	gamma := Const(tensor.New(2).Fill(1))
	beta := Const(tensor.New(2))
	rm := tensor.New(2)
	rv := tensor.New(2).Fill(1)
	y := BatchNorm(x, gamma, beta, rm, rv, true, 0.1, 1e-5)
	if math.Abs(y.T.Mean()) > 1e-4 {
		t.Fatalf("batchnorm output mean = %v, want ~0", y.T.Mean())
	}
	if math.Abs(y.T.Std()-1) > 1e-3 {
		t.Fatalf("batchnorm output std = %v, want ~1", y.T.Std())
	}
	// Running stats must have moved toward the batch stats.
	if rm.Data[0] == 0 || rv.Data[0] == 1 {
		t.Fatal("running statistics not updated in training mode")
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	x := Const(tensor.FromSlice([]float32{10, 10, 10, 10}, 1, 1, 2, 2))
	gamma := Const(tensor.New(1).Fill(2))
	beta := Const(tensor.New(1).Fill(1))
	rm := tensor.New(1).Fill(10)
	rv := tensor.New(1).Fill(4)
	y := BatchNorm(x, gamma, beta, rm, rv, false, 0.1, 0)
	// (10-10)/2*2+1 = 1 everywhere.
	for _, v := range y.T.Data {
		if math.Abs(float64(v)-1) > 1e-5 {
			t.Fatalf("eval batchnorm = %v, want 1", v)
		}
	}
}

func TestSigmoidRange(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		x := Const(tensor.FromSlice(append([]float32(nil), vals...), len(vals)))
		y := Sigmoid(x)
		for _, v := range y.T.Data {
			if !(v >= 0 && v <= 1) && !math.IsNaN(float64(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSSIMIdentityIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := Const(tensor.New(1, 1, 16, 16).RandU(rng, 0, 1))
	got := float64(SSIM(x, x, DefaultSSIM()).Scalar())
	if math.Abs(got-1) > 1e-4 {
		t.Fatalf("SSIM(x,x) = %v, want 1", got)
	}
}

func TestSSIMDecreasesWithNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.New(1, 1, 32, 32)
	for i := range x.Data {
		x.Data[i] = float32(i%32) / 32
	}
	noisy := x.Clone()
	noise := tensor.New(1, 1, 32, 32).RandN(rng, 0, 0.1)
	noisy.AddInPlace(noise)
	s := float64(SSIM(Const(x), Const(noisy), DefaultSSIM()).Scalar())
	if s >= 0.999 || s <= 0 {
		t.Fatalf("SSIM(x, x+noise) = %v, want in (0, 0.999)", s)
	}
}

func TestMSSSIMIdentityIsOne(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := Const(tensor.New(1, 1, 48, 48).RandU(rng, 0, 1))
	cfg := SSIMConfig{WindowSize: 7, Sigma: 1.5, L: 1, K1: 0.01, K2: 0.03}
	got := float64(MSSSIM(x, x, cfg, MaxMSSSIMScales(48, 48, 7)).Scalar())
	if math.Abs(got-1) > 1e-3 {
		t.Fatalf("MSSSIM(x,x) = %v, want 1", got)
	}
}

func TestMaxMSSSIMScales(t *testing.T) {
	if got := MaxMSSSIMScales(512, 512, 11); got != 5 {
		t.Fatalf("512px supports %d scales, want 5", got)
	}
	if got := MaxMSSSIMScales(16, 16, 11); got != 1 {
		t.Fatalf("16px supports %d scales, want 1", got)
	}
	if got := MaxMSSSIMScales(8, 8, 11); got != 0 {
		t.Fatalf("8px supports %d scales, want 0", got)
	}
}

func TestGaussianWindowNormalized(t *testing.T) {
	w := GaussianWindow(11, 1.5)
	if math.Abs(w.Sum()-1) > 1e-5 {
		t.Fatalf("window sum = %v, want 1", w.Sum())
	}
	// Symmetry.
	if w.At(0, 0) != w.At(10, 10) || w.At(0, 10) != w.At(10, 0) {
		t.Fatal("window not symmetric")
	}
	// Peak at center.
	if w.ArgMax() != 5*11+5 {
		t.Fatalf("window peak at %d, want center", w.ArgMax())
	}
}

func TestBCELossKnownValue(t *testing.T) {
	p := Const(tensor.FromSlice([]float32{0.5, 0.5}, 2))
	y := Const(tensor.FromSlice([]float32{1, 0}, 2))
	got := float64(BCELoss(p, y).Scalar())
	want := math.Log(2)
	if math.Abs(got-want) > 1e-5 {
		t.Fatalf("BCE = %v, want ln2 = %v", got, want)
	}
}

func TestBCEWithLogitsMatchesBCE(t *testing.T) {
	logits := Const(tensor.FromSlice([]float32{-2, -0.5, 0.5, 2}, 4))
	y := Const(tensor.FromSlice([]float32{0, 1, 0, 1}, 4))
	direct := float64(BCEWithLogitsLoss(logits, y).Scalar())
	viaSigmoid := float64(BCELoss(Sigmoid(logits), y).Scalar())
	if math.Abs(direct-viaSigmoid) > 1e-5 {
		t.Fatalf("BCEWithLogits = %v, BCE∘sigmoid = %v", direct, viaSigmoid)
	}
}

func TestLinearKnownValues(t *testing.T) {
	x := Const(tensor.FromSlice([]float32{1, 2}, 1, 2))
	w := Const(tensor.FromSlice([]float32{3, 4, 5, 6}, 2, 2))
	b := Const(tensor.FromSlice([]float32{10, 20}, 2))
	y := Linear(x, w, b)
	if y.T.Data[0] != 21 || y.T.Data[1] != 37 {
		t.Fatalf("linear = %v, want [21 37]", y.T.Data)
	}
}

func TestConv3DShapeAndGAP(t *testing.T) {
	x := Const(tensor.New(1, 2, 5, 6, 7))
	w := Const(tensor.New(4, 2, 1, 1, 1))
	y := Conv3D(x, w, nil, Conv3DConfig{Stride: 1, Padding: 0})
	want := []int{1, 4, 5, 6, 7}
	for i, d := range want {
		if y.T.Shape[i] != d {
			t.Fatalf("conv3d shape = %v, want %v", y.T.Shape, want)
		}
	}
	g := GlobalAvgPool3D(y)
	if g.T.Shape[0] != 1 || g.T.Shape[1] != 4 {
		t.Fatalf("gap shape = %v, want (1,4)", g.T.Shape)
	}
}

// Property: conv2d with a 1x1 identity kernel is the identity map.
func TestConvIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := tensor.New(1, 1, 4, 4).RandN(rng, 0, 1)
		w := tensor.FromSlice([]float32{1}, 1, 1, 1, 1)
		y := Conv2D(Const(x), Const(w), nil, Conv2DConfig{Stride: 1})
		return y.T.AllClose(x, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: SSIM is symmetric in its arguments.
func TestSSIMSymmetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Const(tensor.New(1, 1, 16, 16).RandU(rng, 0, 1))
		b := Const(tensor.New(1, 1, 16, 16).RandU(rng, 0, 1))
		s1 := SSIM(a, b, DefaultSSIM()).Scalar()
		s2 := SSIM(b, a, DefaultSSIM()).Scalar()
		return math.Abs(float64(s1-s2)) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
