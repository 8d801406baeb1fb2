package core

import (
	"math/rand"
	"testing"

	"computecovid19/internal/classify"
	"computecovid19/internal/dataset"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/metrics"
)

func smallCohort(t *testing.T, count int, seed int64) []dataset.Case {
	t.Helper()
	cfg := dataset.DefaultCohortConfig()
	cfg.Count = count
	cfg.Size = 32
	cfg.Depth = 8
	cfg.Seed = seed
	return dataset.BuildCohort(cfg)
}

func TestDiagnoseEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cls := classify.New(rng, classify.SmallConfig())
	p := NewPipeline(nil, cls)
	cases := smallCohort(t, 2, 3)
	r := p.Diagnose(cases[0].Volume)
	if r.Probability < 0 || r.Probability > 1 {
		t.Fatalf("probability = %v", r.Probability)
	}
	if len(r.LungMask) != cases[0].Volume.D*32*32 {
		t.Fatalf("mask length %d", len(r.LungMask))
	}
	if r.Enhanced != cases[0].Volume {
		t.Fatal("without enhancer, Enhanced should be the input volume")
	}
	if r.Positive != (r.Probability >= p.Threshold) {
		t.Fatal("Positive flag inconsistent with threshold")
	}
}

func TestEnhanceChangesVolume(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	enh := ddnet.New(rng, ddnet.TinyConfig())
	cls := classify.New(rng, classify.SmallConfig())
	p := NewPipeline(enh, cls)
	cases := smallCohort(t, 1, 4)
	out := p.Enhance(cases[0].Volume)
	if out == cases[0].Volume {
		t.Fatal("enhancement should produce a new volume")
	}
	if out.D != cases[0].Volume.D || out.H != 32 {
		t.Fatalf("enhanced shape %dx%dx%d", out.D, out.H, out.W)
	}
}

func TestTrainEnhancerReducesLoss(t *testing.T) {
	cfg := dataset.DefaultEnhancementConfig()
	cfg.Count = 6
	cfg.Size = 32
	cfg.Views = 90
	cfg.Detectors = 64
	pairs := dataset.BuildEnhancement(cfg)
	rng := rand.New(rand.NewSource(5))
	m := ddnet.New(rng, ddnet.TinyConfig())
	tc := DefaultEnhancerTraining()
	tc.Epochs = 5
	curve := TrainEnhancer(m, pairs, tc)
	if len(curve) != 5 {
		t.Fatalf("curve has %d epochs", len(curve))
	}
	if curve[len(curve)-1] >= curve[0] {
		t.Fatalf("training loss did not decrease: %v", curve)
	}
}

func TestEvaluateEnhancerTable8Shape(t *testing.T) {
	cfg := dataset.DefaultEnhancementConfig()
	cfg.Count = 10
	cfg.Size = 32
	cfg.Views = 90
	cfg.Detectors = 64
	cfg.DoseDivisor = 128 // strongly degraded input so the win is clear
	pairs := dataset.BuildEnhancement(cfg)
	train, _, test := dataset.Split(pairs, 0.8, 0)

	rng := rand.New(rand.NewSource(6))
	m := ddnet.New(rng, ddnet.TinyConfig())
	tc := DefaultEnhancerTraining()
	tc.Epochs = 20
	TrainEnhancer(m, train, tc)

	mseYX, _, mseYFX, _ := EvaluateEnhancer(m, test)
	// Table 8's key relationship: enhancement reduces MSE versus the
	// low-dose input.
	if mseYFX >= mseYX {
		t.Fatalf("enhancement did not reduce MSE: Y-X %v, Y-f(X) %v", mseYX, mseYFX)
	}
}

func TestTrainClassifierLearnsCohort(t *testing.T) {
	cases := smallCohort(t, 16, 7)
	rng := rand.New(rand.NewSource(8))
	cls := classify.New(rng, classify.SmallConfig())
	tc := DefaultClassifierTraining()
	tc.Epochs = 14
	tc.LR = 5e-3
	tc.Augment = false
	curve := TrainClassifier(cls, cases, tc)
	if curve[len(curve)-1] >= curve[0] {
		t.Fatalf("classifier loss did not decrease: %v", curve)
	}

	p := NewPipeline(nil, cls)
	probs, labels := p.Score(cases)
	if auc := metrics.AUC(probs, labels); auc < 0.7 {
		t.Fatalf("training-set AUC = %v, want > 0.7", auc)
	}
}

func TestEvaluateCohortConsistency(t *testing.T) {
	cases := smallCohort(t, 12, 9)
	rng := rand.New(rand.NewSource(10))
	cls := classify.New(rng, classify.SmallConfig())
	p := NewPipeline(nil, cls)
	ev := EvaluateCohort(p, cases)
	if ev.Accuracy < 0 || ev.Accuracy > 1 || ev.AUC < 0 || ev.AUC > 1 {
		t.Fatalf("out-of-range metrics: %+v", ev)
	}
	total := ev.Confusion.TP + ev.Confusion.FP + ev.Confusion.FN + ev.Confusion.TN
	if total != len(cases) {
		t.Fatalf("confusion covers %d cases, want %d", total, len(cases))
	}
	if len(ev.ROC) < 2 {
		t.Fatal("ROC curve too short")
	}
}
