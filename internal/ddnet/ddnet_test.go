package ddnet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/ag"
	"computecovid19/internal/metrics"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
)

func TestPaperConfigLayerCounts(t *testing.T) {
	// §2.2: "37 convolution layers ... eight deconvolution layers".
	m := New(rand.New(rand.NewSource(1)), PaperConfig())
	if got := m.NumConvLayers(); got != 37 {
		t.Fatalf("paper DDnet has %d conv layers, want 37", got)
	}
	if got := m.NumDeconvLayers(); got != 8 {
		t.Fatalf("paper DDnet has %d deconv layers, want 8", got)
	}
}

func TestForwardPreservesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := New(rng, TinyConfig())
	x := ag.Const(tensor.New(1, 1, 32, 32).RandU(rng, 0, 1))
	y := m.Forward(x)
	want := []int{1, 1, 32, 32}
	for i, d := range want {
		if y.T.Shape[i] != d {
			t.Fatalf("output shape %v, want %v", y.T.Shape, want)
		}
	}
}

func TestForwardBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(rng, TinyConfig())
	x := ag.Const(tensor.New(3, 1, 16, 16).RandU(rng, 0, 1))
	y := m.Forward(x)
	if y.T.Shape[0] != 3 {
		t.Fatalf("batch dim = %d, want 3", y.T.Shape[0])
	}
}

func TestPaperShapesAtFullResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution forward pass is slow")
	}
	// Verify the Table 2 bottleneck: 512 → 32 after four pools.
	cfg := PaperConfig()
	for s, want := 0, 512; s <= cfg.Stages; s, want = s+1, want/2 {
		_ = want
	}
	// Shape arithmetic only (cheap): 512/2^4 = 32.
	if 512>>cfg.Stages != 32 {
		t.Fatalf("paper config bottleneck = %d, want 32", 512>>cfg.Stages)
	}
}

func TestTrainingDenoisesImages(t *testing.T) {
	// The headline behaviour: after a few steps on clean/noisy pairs,
	// the enhanced image is closer to the clean one than the noisy
	// input was.
	rng := rand.New(rand.NewSource(4))
	m := New(rng, TinyConfig())
	opt := nn.NewAdam(m.Params(), 2e-3)

	const size = 16
	mkPair := func() (noisy, clean *tensor.Tensor) {
		clean = tensor.New(1, 1, size, size)
		// Smooth structure: soft disk.
		cx, cy := 4.0+8*rng.Float64(), 4.0+8*rng.Float64()
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				d := math.Hypot(float64(x)-cx, float64(y)-cy)
				clean.Set(float32(0.8*math.Exp(-d*d/16)+0.1), 0, 0, y, x)
			}
		}
		noisy = clean.Clone().AddInPlace(tensor.New(1, 1, size, size).RandN(rng, 0, 0.1))
		noisy.Clamp(0, 1)
		return noisy, clean
	}

	m.SetTraining(true)
	for step := 0; step < 60; step++ {
		noisy, clean := mkPair()
		opt.ZeroGrad()
		loss := Loss(m.Forward(ag.Const(noisy)), ag.Const(clean))
		loss.Backward()
		opt.Step()
	}

	m.SetTraining(false)
	var mseNoisy, mseEnh float64
	for trial := 0; trial < 5; trial++ {
		noisy, clean := mkPair()
		enhanced := m.Forward(ag.Const(noisy))
		mseNoisy += metrics.MSE(noisy, clean)
		mseEnh += metrics.MSE(enhanced.T, clean)
	}
	if mseEnh >= mseNoisy {
		t.Fatalf("enhancement did not help: MSE noisy %v, enhanced %v", mseNoisy/5, mseEnh/5)
	}
}

func TestEnhanceConvenience(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := New(rng, TinyConfig())
	img := tensor.New(16, 16).RandU(rng, 0, 1)
	out := m.Enhance(img)
	if out.Rank() != 2 || out.Shape[0] != 16 {
		t.Fatalf("Enhance output shape %v", out.Shape)
	}
	if out.Min() < 0 || out.Max() > 1 {
		t.Fatalf("Enhance output out of [0,1]: [%v, %v]", out.Min(), out.Max())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	src := New(rng, TinyConfig())
	// Push some data through so running stats are non-trivial.
	src.SetTraining(true)
	x := ag.Const(tensor.New(1, 1, 16, 16).RandU(rng, 0, 1))
	src.Forward(x)

	var buf bytes.Buffer
	if err := nn.SaveModule(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := New(rand.New(rand.NewSource(7)), TinyConfig())
	if err := nn.LoadModule(&buf, dst); err != nil {
		t.Fatal(err)
	}
	src.SetTraining(false)
	dst.SetTraining(false)
	y1 := src.Forward(x)
	y2 := dst.Forward(x)
	if !y1.T.AllClose(y2.T, 1e-6) {
		t.Fatal("save/load changed DDnet output")
	}
}

func TestGradientsReachEveryParameter(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := New(rng, TinyConfig())
	m.SetTraining(true)
	x := ag.Const(tensor.New(1, 1, 16, 16).RandU(rng, 0, 1))
	target := ag.Const(tensor.New(1, 1, 16, 16).RandU(rng, 0, 1))
	loss := Loss(m.Forward(x), target)
	loss.Backward()
	for i, p := range m.Params() {
		if p.Grad == nil {
			t.Fatalf("param %d received no gradient", i)
		}
		nonzero := false
		for _, g := range p.Grad.Data {
			if g != 0 {
				nonzero = true
				break
			}
		}
		if !nonzero {
			t.Errorf("param %d gradient is all zeros", i)
		}
	}
}

func TestResidualOffStillRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := TinyConfig()
	cfg.Residual = false
	m := New(rng, cfg)
	x := ag.Const(tensor.New(1, 1, 16, 16).RandU(rng, 0, 1))
	y := m.Forward(x)
	if y.T.Shape[2] != 16 {
		t.Fatalf("non-residual output shape %v", y.T.Shape)
	}
}

func TestParamCountsDifferByConfig(t *testing.T) {
	tiny := New(rand.New(rand.NewSource(10)), TinyConfig())
	paper := New(rand.New(rand.NewSource(10)), PaperConfig())
	nt := nn.NumParams(tiny.Params())
	np := nn.NumParams(paper.Params())
	if nt <= 0 || np <= nt {
		t.Fatalf("param counts: tiny %d, paper %d", nt, np)
	}
}

func TestEnhanceBatchValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := New(rng, TinyConfig())
	if got := m.EnhanceBatch(nil); got != nil {
		t.Fatalf("empty batch should return nil, got %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mixed-size batch should panic")
		}
	}()
	m.EnhanceBatch([]*tensor.Tensor{tensor.New(16, 16), tensor.New(32, 32)})
}
