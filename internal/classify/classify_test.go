package classify

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/ag"
	"computecovid19/internal/metrics"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

func TestForwardShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := New(rng, SmallConfig())
	x := ag.Const(tensor.New(2, 1, 8, 16, 16).RandU(rng, 0, 1))
	y := c.Forward(x)
	if y.T.Shape[0] != 2 || y.T.Shape[1] != 1 {
		t.Fatalf("logits shape %v, want (2, 1)", y.T.Shape)
	}
}

func TestPredictProbabilityRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := New(rng, SmallConfig())
	v := volume.New(8, 16, 16)
	for i := range v.Data {
		v.Data[i] = rng.Float32()
	}
	p := c.Predict(v)
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("Predict = %v, want probability", p)
	}
}

// mkVolume builds a toy volume: positives carry a bright blob, negatives
// are smooth background.
func mkVolume(rng *rand.Rand, positive bool) *tensor.Tensor {
	v := tensor.New(1, 1, 8, 16, 16)
	for i := range v.Data {
		v.Data[i] = 0.2 + 0.05*float32(rng.NormFloat64())
	}
	if positive {
		cz, cy, cx := 2+rng.Intn(4), 4+rng.Intn(8), 4+rng.Intn(8)
		for z := 0; z < 8; z++ {
			for y := 0; y < 16; y++ {
				for x := 0; x < 16; x++ {
					d := math.Pow(float64(z-cz), 2)/4 + math.Pow(float64(y-cy), 2)/9 +
						math.Pow(float64(x-cx), 2)/9
					if d < 1.5 {
						idx := (z*16+y)*16 + x
						v.Data[idx] += float32(0.5 * math.Exp(-d))
					}
				}
			}
		}
	}
	return v
}

func TestTrainingSeparatesClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := New(rng, SmallConfig())
	opt := nn.NewAdam(c.Params(), 5e-3)
	c.SetTraining(true)
	for step := 0; step < 50; step++ {
		// Balanced batch of 4: batch norm needs more than one sample to
		// estimate useful statistics.
		batch := tensor.New(4, 1, 8, 16, 16)
		labels := tensor.New(4, 1)
		for b := 0; b < 4; b++ {
			pos := b%2 == 0
			v := mkVolume(rng, pos)
			copy(batch.Data[b*8*16*16:(b+1)*8*16*16], v.Data)
			if pos {
				labels.Data[b] = 1
			}
		}
		opt.ZeroGrad()
		loss := Loss(c.Forward(ag.Const(batch)), ag.Const(labels))
		loss.Backward()
		opt.Step()
	}
	c.SetTraining(false)
	var probs []float64
	var labels []bool
	for trial := 0; trial < 20; trial++ {
		pos := trial%2 == 0
		x := ag.Const(mkVolume(rng, pos))
		p := float64(ag.Sigmoid(c.Forward(x)).Scalar())
		probs = append(probs, p)
		labels = append(labels, pos)
	}
	if auc := metrics.AUC(probs, labels); auc < 0.8 {
		t.Fatalf("classifier AUC after training = %v, want > 0.8", auc)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := New(rng, SmallConfig())
	src.SetTraining(true)
	x := ag.Const(tensor.New(1, 1, 8, 16, 16).RandU(rng, 0, 1))
	src.Forward(x)

	var buf bytes.Buffer
	if err := nn.SaveModule(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := New(rand.New(rand.NewSource(5)), SmallConfig())
	if err := nn.LoadModule(&buf, dst); err != nil {
		t.Fatal(err)
	}
	src.SetTraining(false)
	dst.SetTraining(false)
	if !src.Forward(x).T.AllClose(dst.Forward(x).T, 1e-6) {
		t.Fatal("save/load changed classifier output")
	}
}

func TestAugmentPerturbsButPreservesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	v := tensor.New(1, 1, 4, 8, 8).Fill(0.5)
	a := Augment(rng, v)
	if !a.SameShape(v) {
		t.Fatal("Augment changed shape")
	}
	if a.AllClose(v, 1e-9) {
		t.Fatal("Augment should perturb the volume (with these RNG draws)")
	}
	// Original must be untouched.
	if v.Data[0] != 0.5 {
		t.Fatal("Augment mutated its input")
	}
}

func TestGradientsReachAllParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(rng, SmallConfig())
	c.SetTraining(true)
	x := ag.Const(tensor.New(1, 1, 8, 16, 16).RandU(rng, 0, 1))
	label := ag.Const(tensor.FromSlice([]float32{1}, 1, 1))
	Loss(c.Forward(x), label).Backward()
	for i, p := range c.Params() {
		if p.Grad == nil {
			t.Fatalf("param %d has no gradient", i)
		}
	}
}
