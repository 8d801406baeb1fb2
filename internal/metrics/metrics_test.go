package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"computecovid19/internal/tensor"
)

func TestMSEAndPSNR(t *testing.T) {
	a := tensor.FromSlice([]float32{0, 0, 0, 0}, 4)
	b := tensor.FromSlice([]float32{0.1, 0.1, 0.1, 0.1}, 4)
	if got := MSE(a, b); math.Abs(got-0.01) > 1e-9 {
		t.Fatalf("MSE = %v, want 0.01", got)
	}
	if got := PSNR(a, b, 1); math.Abs(got-20) > 1e-6 {
		t.Fatalf("PSNR = %v, want 20 dB", got)
	}
	if !math.IsInf(PSNR(a, a, 1), 1) {
		t.Fatal("PSNR of identical images should be +Inf")
	}
}

func TestSSIMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	img := tensor.New(16, 16).RandU(rng, 0, 1)
	if got := SSIM(img, img); math.Abs(got-1) > 1e-4 {
		t.Fatalf("SSIM(x,x) = %v, want 1", got)
	}
}

func TestMSSSIMOrdersByDegradation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	clean := tensor.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			clean.Set(float32(x+y)/128, y, x)
		}
	}
	little := clean.Clone().AddInPlace(tensor.New(64, 64).RandN(rng, 0, 0.02))
	lots := clean.Clone().AddInPlace(tensor.New(64, 64).RandN(rng, 0, 0.2))
	sLittle := MSSSIM(clean, little)
	sLots := MSSSIM(clean, lots)
	if !(sLittle > sLots) {
		t.Fatalf("MS-SSIM should order degradations: little=%v lots=%v", sLittle, sLots)
	}
	if math.IsNaN(sLittle) || sLittle > 1.0001 {
		t.Fatalf("MS-SSIM out of range: %v", sLittle)
	}
}

func TestMSSSIMTinyImageNaN(t *testing.T) {
	a := tensor.New(4, 4)
	if !math.IsNaN(MSSSIM(a, a)) {
		t.Fatal("MS-SSIM on image smaller than window should be NaN")
	}
}

func TestConfusionCounts(t *testing.T) {
	probs := []float64{0.9, 0.8, 0.3, 0.2, 0.6, 0.1}
	labels := []bool{true, true, true, false, false, false}
	c := Confuse(probs, labels, 0.5)
	if c.TP != 2 || c.FN != 1 || c.FP != 1 || c.TN != 2 {
		t.Fatalf("confusion = %+v", c)
	}
	if math.Abs(c.Accuracy()-4.0/6.0) > 1e-9 {
		t.Fatalf("accuracy = %v", c.Accuracy())
	}
	if math.Abs(c.TPR()-2.0/3.0) > 1e-9 {
		t.Fatalf("TPR = %v", c.TPR())
	}
	if math.Abs(c.FPR()-1.0/3.0) > 1e-9 {
		t.Fatalf("FPR = %v", c.FPR())
	}
}

func TestConfusionEmptyDenominators(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.TPR() != 0 || c.FPR() != 0 {
		t.Fatal("empty confusion matrix should report zeros, not NaN")
	}
}

func TestAUCPerfectClassifier(t *testing.T) {
	probs := []float64{0.9, 0.8, 0.7, 0.3, 0.2, 0.1}
	labels := []bool{true, true, true, false, false, false}
	if got := AUC(probs, labels); math.Abs(got-1) > 1e-9 {
		t.Fatalf("AUC of perfect classifier = %v, want 1", got)
	}
}

func TestAUCWorstClassifier(t *testing.T) {
	probs := []float64{0.1, 0.2, 0.9, 0.8}
	labels := []bool{true, true, false, false}
	if got := AUC(probs, labels); math.Abs(got) > 1e-9 {
		t.Fatalf("AUC of inverted classifier = %v, want 0", got)
	}
}

func TestAUCRandomIsHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4000
	probs := make([]float64, n)
	labels := make([]bool, n)
	for i := range probs {
		probs[i] = rng.Float64()
		labels[i] = rng.Intn(2) == 0
	}
	if got := AUC(probs, labels); math.Abs(got-0.5) > 0.03 {
		t.Fatalf("AUC of random scores = %v, want ~0.5", got)
	}
}

func TestAUCHandlesTies(t *testing.T) {
	probs := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, false, true, false}
	if got := AUC(probs, labels); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("AUC with all ties = %v, want 0.5", got)
	}
}

func TestROCEndpoints(t *testing.T) {
	probs := []float64{0.9, 0.1}
	labels := []bool{true, false}
	curve := ROC(probs, labels)
	first, last := curve[0], curve[len(curve)-1]
	if first.FPR != 0 || first.TPR != 0 {
		t.Fatalf("ROC should start at origin, got %+v", first)
	}
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("ROC should end at (1,1), got %+v", last)
	}
}

func TestROCMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	probs := make([]float64, 200)
	labels := make([]bool, 200)
	for i := range probs {
		probs[i] = rng.Float64()
		labels[i] = rng.Intn(2) == 0
	}
	curve := ROC(probs, labels)
	for i := 1; i < len(curve); i++ {
		if curve[i].FPR < curve[i-1].FPR || curve[i].TPR < curve[i-1].TPR {
			t.Fatalf("ROC not monotone at %d: %+v -> %+v", i, curve[i-1], curve[i])
		}
	}
}

func TestBestThresholdSeparable(t *testing.T) {
	probs := []float64{0.9, 0.85, 0.8, 0.2, 0.15, 0.1}
	labels := []bool{true, true, true, false, false, false}
	th := BestThreshold(probs, labels)
	c := Confuse(probs, labels, th)
	if c.Accuracy() != 1 {
		t.Fatalf("best threshold %v gives accuracy %v, want 1", th, c.Accuracy())
	}
}

// Property: AUC is invariant to any strictly monotone transform of the
// scores.
func TestAUCMonotoneInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50
		probs := make([]float64, n)
		labels := make([]bool, n)
		for i := range probs {
			probs[i] = rng.Float64()
			labels[i] = rng.Intn(2) == 0
		}
		squashed := make([]float64, n)
		for i, p := range probs {
			squashed[i] = 1 / (1 + math.Exp(-5*(p-0.5)))
		}
		return math.Abs(AUC(probs, labels)-AUC(squashed, labels)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: accuracy + error rate = 1 for any threshold.
func TestAccuracyComplementProperty(t *testing.T) {
	f := func(seed int64, thRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		th := float64(thRaw) / 255
		n := 30
		probs := make([]float64, n)
		labels := make([]bool, n)
		for i := range probs {
			probs[i] = rng.Float64()
			labels[i] = rng.Intn(2) == 0
		}
		c := Confuse(probs, labels, th)
		errRate := float64(c.FP+c.FN) / float64(n)
		return math.Abs(c.Accuracy()+errRate-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
