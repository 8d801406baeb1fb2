package experiments

import (
	"fmt"
	"math/rand"

	"computecovid19/internal/classify"
	"computecovid19/internal/core"
	"computecovid19/internal/ctsim"
	"computecovid19/internal/dataset"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/metrics"
	"computecovid19/internal/phantom"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// DenoisingAblation compares the three low-dose strategies the paper's
// related-work section frames against each other (§6.3): plain FBP,
// regularized iterative reconstruction (SART), and FBP followed by
// DDnet enhancement — all on the same noisy acquisitions.
type DenoisingAblation struct {
	// Per-method mean image quality against the clean phantoms.
	FBPMSE, SARTMSE, DDnetMSE    float64
	FBPSSIM, SARTSSIM, DDnetSSIM float64
	Images                       int
}

// RunDenoisingAblation trains a small DDnet at the given dose and then
// scores the three methods on held-out acquisitions.
func RunDenoisingAblation(cfg Config) DenoisingAblation {
	size := 32
	trainN, testN := 12, 5
	epochs := 10
	if cfg.Quick {
		trainN, testN, epochs = 8, 3, 6
	}
	const photons = 300.0

	// Train DDnet on FBP reconstructions at this dose.
	ecfg := dataset.EnhancementConfig{
		Size: size, Count: trainN, Views: 120, Detectors: 64,
		PhotonsPerRay: 1e6, DoseDivisor: 1e6 / photons,
		LesionFraction: 0.5, Seed: cfg.Seed + 40,
	}
	net := ddnet.New(rand.New(rand.NewSource(cfg.Seed+41)), ddnet.TinyConfig())
	tc := core.DefaultEnhancerTraining()
	tc.Epochs = epochs
	tc.Seed = cfg.Seed + 42
	core.TrainEnhancer(net, dataset.BuildEnhancement(ecfg), tc)

	// Held-out acquisitions, evaluated with all three methods.
	rng := rand.New(rand.NewSource(cfg.Seed + 43))
	grid := ctsim.Grid{Size: size, PixelSize: 360.0 / float64(size)}
	fan := ctsim.PaperFanGeometry(grid.FOV())
	fan.NumViews, fan.NumDetectors = 120, 64
	fan.DetectorSpacing = grid.FOV() * 1.5 * (fan.SDD / fan.SOD) / float64(fan.NumDetectors)

	var out DenoisingAblation
	out.Images = testN
	for i := 0; i < testN; i++ {
		chest := phantom.NewChest(rng, size, 1)
		if i%2 == 0 {
			chest.AddRandomLesions(rng, 2, 0.8)
		}
		hu := chest.SliceHU(0)
		clean := normalizeHUSlice(hu, size)

		mu := ctsim.HUImageToMu(hu)
		sino := ctsim.ForwardProjectFan(grid, mu, fan)
		noisy := ctsim.ApplyPoissonNoise(sino, photons, rng)

		fbpMu := ctsim.ReconstructFan(noisy, grid, fan, ctsim.RamLak)
		fbp := normalizeHUSlice(ctsim.MuImageToHU(fbpMu), size)

		sartOpt := ctsim.DefaultSART()
		sartOpt.Smooth = 0.2
		sartMu := ctsim.ReconstructSARTFan(noisy, grid, fan, sartOpt)
		sart := normalizeHUSlice(ctsim.MuImageToHU(sartMu), size)

		enhanced := net.Enhance(fbp)

		n := float64(testN)
		out.FBPMSE += metrics.MSE(clean, fbp) / n
		out.SARTMSE += metrics.MSE(clean, sart) / n
		out.DDnetMSE += metrics.MSE(clean, enhanced) / n
		out.FBPSSIM += metrics.SSIM(clean, fbp) / n
		out.SARTSSIM += metrics.SSIM(clean, sart) / n
		out.DDnetSSIM += metrics.SSIM(clean, enhanced) / n
	}
	return out
}

func normalizeHUSlice(hu []float32, size int) *tensor.Tensor {
	t := tensor.New(size, size)
	for i, v := range hu {
		t.Data[i] = float32(ctsim.NormalizeHU(float64(v), ctsim.FullWindowLo, ctsim.FullWindowHi))
	}
	return t
}

// Ablation runs and renders the denoising comparison table.
func Ablation(cfg Config) string { return RunDenoisingAblation(cfg).String() }

// String renders a as the denoising comparison table.
func (a DenoisingAblation) String() string {
	t := &table{header: []string{"Method", "MSE", "SSIM"}}
	t.add("FBP (Ram-Lak)", fmt.Sprintf("%.5f", a.FBPMSE), fmt.Sprintf("%.4f", a.FBPSSIM))
	t.add("Regularized SART", fmt.Sprintf("%.5f", a.SARTMSE), fmt.Sprintf("%.4f", a.SARTSSIM))
	t.add("FBP + DDnet (this work)", fmt.Sprintf("%.5f", a.DDnetMSE), fmt.Sprintf("%.4f", a.DDnetSSIM))
	return fmt.Sprintf("Ablation: low-dose strategies at 300 photons/ray, %d held-out images\n%s",
		a.Images, t.String())
}

// DimensionalityResult compares the 2D slice-based baseline (§6.2.1's
// family, trained with weak scan-level labels) against the paper's 3D
// classifier on the same cohort.
type DimensionalityResult struct {
	AUC2D, AUC3D float64
	TestCases    int
}

// RunDimensionality trains both classifiers on one synthetic cohort and
// scores them on a held-out split.
func RunDimensionality(cfg Config) DimensionalityResult {
	count, epochs := 36, 18
	if cfg.Quick {
		count, epochs = 24, 16
	}
	ccfg := dataset.DefaultCohortConfig()
	ccfg.Count = count
	ccfg.Size, ccfg.Depth = 32, 8
	ccfg.Severity = 1.0
	ccfg.Seed = cfg.Seed + 50
	cohort := dataset.BuildCohort(ccfg)
	trainCases, _, testCases := dataset.Split(cohort, 0.6, 0)

	// 3D: the paper's pipeline classifier.
	cls3 := classify.New(rand.New(rand.NewSource(cfg.Seed+51)), classify.SmallConfig())
	tc := core.DefaultClassifierTraining()
	tc.Epochs = epochs
	tc.LR = 5e-3
	tc.Augment = false
	tc.Seed = cfg.Seed + 52
	core.TrainClassifier(cls3, trainCases, tc)
	pipe := core.NewPipeline(nil, cls3)
	probs3, labels := pipe.Score(testCases)

	// 2D: weakly-labelled slice classifier on the same masked inputs.
	var vols []*volume.Volume
	var trainLabels []bool
	for _, c := range trainCases {
		in := core.PrepareClassifierInput(nil, c.Volume)
		vols = append(vols, volume.FromTensor(in.Reshape(c.Volume.D, c.Volume.H, c.Volume.W)))
		trainLabels = append(trainLabels, c.Label)
	}
	cls2 := classify.NewSlice2D(rand.New(rand.NewSource(cfg.Seed+53)), 8, 0.05)
	cls2.TrainWeaklyLabelled(vols, trainLabels, epochs, 8, 3e-3, cfg.Seed+54)
	var probs2 []float64
	for _, c := range testCases {
		in := core.PrepareClassifierInput(nil, c.Volume)
		probs2 = append(probs2, cls2.PredictVolume(volume.FromTensor(in.Reshape(c.Volume.D, c.Volume.H, c.Volume.W))))
	}

	return DimensionalityResult{
		AUC2D:     metrics.AUC(probs2, labels),
		AUC3D:     metrics.AUC(probs3, labels),
		TestCases: len(testCases),
	}
}

// Dimensionality runs and renders the 2D-vs-3D comparison (paper §6.2 /
// Table 10 context).
func Dimensionality(cfg Config) string { return RunDimensionality(cfg).String() }

// String renders r as the 2D-vs-3D comparison table.
func (r DimensionalityResult) String() string {
	t := &table{header: []string{"Classifier", "AUC-ROC"}}
	t.add("2D slice CNN, weak labels (cf. §6.2.1 systems)", fmt.Sprintf("%.3f", r.AUC2D))
	t.add("3D DenseNet (this work)", fmt.Sprintf("%.3f", r.AUC3D))
	return fmt.Sprintf("Ablation: 2D vs 3D classification on %d held-out scans (no manual slice selection for either)\n%s",
		r.TestCases, t.String())
}
