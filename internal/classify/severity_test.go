package classify

import (
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/ag"
	"computecovid19/internal/nn"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// gradedVolume builds a toy volume whose blob count/size encodes the
// grade.
func gradedVolume(rng *rand.Rand, g Grade) *tensor.Tensor {
	v := tensor.New(1, 1, 8, 16, 16)
	for i := range v.Data {
		v.Data[i] = 0.15 + 0.04*float32(rng.NormFloat64())
	}
	blobs := 0
	switch g {
	case GradeMild:
		blobs = 1
	case GradeSevere:
		blobs = 4
	}
	for b := 0; b < blobs; b++ {
		cz, cy, cx := 1+rng.Intn(6), 3+rng.Intn(10), 3+rng.Intn(10)
		for z := 0; z < 8; z++ {
			for y := 0; y < 16; y++ {
				for x := 0; x < 16; x++ {
					d := math.Pow(float64(z-cz), 2)/3 + math.Pow(float64(y-cy), 2)/8 +
						math.Pow(float64(x-cx), 2)/8
					if d < 1.5 {
						v.Data[(z*16+y)*16+x] += float32(0.5 * math.Exp(-d))
					}
				}
			}
		}
	}
	return v
}

func TestSeverityGraderShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := NewSeverityGrader(rng, SmallConfig(), NumGrades)
	if s.num != 3 {
		t.Fatalf("head width = %d", s.num)
	}
	x := ag.Const(tensor.New(2, 1, 8, 16, 16).RandU(rng, 0, 1))
	y := s.Forward(x)
	if y.T.Shape[0] != 2 || y.T.Shape[1] != 3 {
		t.Fatalf("logit shape %v, want (2, 3)", y.T.Shape)
	}
}

func TestSeverityGraderLearnsOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewSeverityGrader(rng, SmallConfig(), NumGrades)
	opt := nn.NewAdam(s.Params(), 5e-3)
	s.SetTraining(true)
	for step := 0; step < 60; step++ {
		grades := []Grade{GradeNone, GradeMild, GradeSevere}
		batch := tensor.New(3, 1, 8, 16, 16)
		for i, g := range grades {
			v := gradedVolume(rng, g)
			copy(batch.Data[i*8*16*16:(i+1)*8*16*16], v.Data)
		}
		opt.ZeroGrad()
		loss := s.Loss(s.Forward(ag.Const(batch)), grades)
		loss.Backward()
		opt.Step()
	}
	s.SetTraining(false)
	correct := 0
	total := 0
	for trial := 0; trial < 10; trial++ {
		for _, g := range []Grade{GradeNone, GradeMild, GradeSevere} {
			vol := gradedVolume(rng, g)
			v := &volume.Volume{D: 8, H: 16, W: 16, Data: vol.Data}
			pred, probs := s.PredictGrade(v)
			if len(probs) != 3 {
				t.Fatalf("probs length %d", len(probs))
			}
			sum := 0.0
			for _, p := range probs {
				sum += p
			}
			if math.Abs(sum-1) > 1e-4 {
				t.Fatalf("probabilities sum to %v", sum)
			}
			if pred == g {
				correct++
			}
			total++
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.55 { // chance is 1/3
		t.Fatalf("severity accuracy = %v, want > 0.55", acc)
	}
}

func TestSeverityGradeStrings(t *testing.T) {
	if GradeNone.String() == "" || GradeMild.String() != "mild" || GradeSevere.String() != "severe" {
		t.Fatal("grade names wrong")
	}
	if Grade(9).String() != "unknown" {
		t.Fatal("unknown grade should say so")
	}
}

func TestSeverityGraderRejectsOneClass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for < 2 classes")
		}
	}()
	NewSeverityGrader(rand.New(rand.NewSource(3)), SmallConfig(), 1)
}

func TestSeverityParamsExcludeBinaryHead(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := NewSeverityGrader(rng, SmallConfig(), NumGrades)
	for _, p := range s.Params() {
		if p == s.trunk.fc.W || p == s.trunk.fc.B {
			t.Fatal("severity params must not include the unused binary head")
		}
	}
}
