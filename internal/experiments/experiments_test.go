package experiments

import (
	"strings"
	"testing"
)

func TestTable1Renders(t *testing.T) {
	out := Table1(QuickConfig())
	for _, want := range []string{"Mayo Clinic", "BIMCV", "MIDRC", "LIDC"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTable2MatchesPaperShapes(t *testing.T) {
	out := Table2(QuickConfig())
	// Spot-check the paper's Table 2 rows.
	for _, want := range []string{
		"37 conv + 8 deconv",
		"512x512x16", // Convolution 1 output
		"256x256x80", // Dense Block 1 output
		"32x32x16",   // bottleneck
		"512x512x1",  // final output
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3ShapeHolds(t *testing.T) {
	rows := Table3Data(QuickConfig())
	if len(rows) != 8 {
		t.Fatalf("Table 3 has %d rows, want 8", len(rows))
	}
	// Projected runtimes within 2x of the paper's measurements, and the
	// single-node row is the slowest.
	for _, r := range rows {
		ratio := r.ProjectedRuntimeSec / r.PaperRuntimeSec
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("nodes=%d batch=%d: projection %.0fs vs paper %.0fs (ratio %.2f)",
				r.Nodes, r.Batch, r.ProjectedRuntimeSec, r.PaperRuntimeSec, ratio)
		}
		if r.MeasuredMSSSIM <= 0 || r.MeasuredMSSSIM > 1 {
			t.Errorf("measured MS-SSIM out of range: %v", r.MeasuredMSSSIM)
		}
	}
	if rows[0].ProjectedRuntimeSec < rows[7].ProjectedRuntimeSec {
		t.Error("single-node batch-1 must be the slowest configuration")
	}
	// Paper shape: batch 64 trains faster than batch 8 on 8 nodes but
	// with worse MS-SSIM. At our reduced scale the 8-vs-64 quality gap
	// can be within run-to-run noise, so the hard assertion contrasts
	// the extremes (batch 1 vs batch 64); 8 vs 64 gets a tolerance.
	var b1, b8, b64 Table3Row
	for _, r := range rows {
		if r.Nodes == 1 && r.Batch == 1 {
			b1 = r
		}
		if r.Nodes == 8 && r.Batch == 8 && r.Epochs == 50 {
			b8 = r
		}
		if r.Nodes == 8 && r.Batch == 64 {
			b64 = r
		}
	}
	if b64.ProjectedRuntimeSec >= b8.ProjectedRuntimeSec {
		t.Error("batch 64 should be faster than batch 8 at 8 nodes")
	}
	if b64.MeasuredMSSSIM >= b1.MeasuredMSSSIM {
		t.Errorf("batch 64 should lose quality vs batch 1: %.4f vs %.4f",
			b64.MeasuredMSSSIM, b1.MeasuredMSSSIM)
	}
	if b64.MeasuredMSSSIM > b8.MeasuredMSSSIM+0.01 {
		t.Errorf("batch 64 should not beat batch 8 by a margin: %.4f vs %.4f",
			b64.MeasuredMSSSIM, b8.MeasuredMSSSIM)
	}
}

func TestTable4Shape(t *testing.T) {
	rows := Table4Data()
	if len(rows) != 6 {
		t.Fatalf("Table 4 has %d rows", len(rows))
	}
	// V100 fastest OpenCL; FPGA slowest; PyTorch slower than OpenCL
	// everywhere it exists.
	if !(rows[0].OpenCLSec < rows[1].OpenCLSec && rows[0].OpenCLSec < rows[4].OpenCLSec) {
		t.Error("V100 must be the fastest OpenCL platform")
	}
	if rows[5].OpenCLSec < rows[4].OpenCLSec {
		t.Error("FPGA must be slower than the CPU")
	}
	for _, r := range rows {
		if r.HasPyTorch && r.PyTorchSec <= r.OpenCLSec {
			t.Errorf("%s: PyTorch (%.2f) must be slower than OpenCL (%.2f)",
				r.Platform.Name, r.PyTorchSec, r.OpenCLSec)
		}
	}
}

func TestTable6Exact(t *testing.T) {
	out := Table6(QuickConfig())
	for _, want := range []string{"13421.8", "8.4", "18.9", "469.8", "41.9"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 6 missing %q:\n%s", want, out)
		}
	}
}

func TestTable7LadderShape(t *testing.T) {
	proj := Table7Data()
	for name, row := range proj {
		if !(row[0] > row[1] && row[1] >= row[2] && row[2] >= row[3]) {
			t.Errorf("%s ladder not monotone: %v", name, row)
		}
	}
	v100 := proj["Nvidia V100 GPU"]
	if v100[0]/v100[1] < 100 {
		t.Errorf("V100 baseline/REF = %.0f, paper shows ~640x", v100[0]/v100[1])
	}
}

func TestTable10Renders(t *testing.T) {
	out := Table10(QuickConfig())
	if !strings.Contains(out, "ComputeCOVID19+") || !strings.Contains(out, "FPGA") {
		t.Fatalf("Table 10 malformed:\n%s", out)
	}
}

func TestFigure2Shape(t *testing.T) {
	out := Figure2(QuickConfig())
	if !strings.Contains(out, "variant") {
		t.Fatalf("Figure 2 malformed:\n%s", out)
	}
}

func TestFigure8DoseOrdering(t *testing.T) {
	d := Figure8Run(QuickConfig())
	if d.FullDosePSNR <= d.LowDosePSNR {
		t.Fatalf("full dose (%.2f dB) must beat 1%%-dose (%.2f dB)",
			d.FullDosePSNR, d.LowDosePSNR)
	}
	if d.FullDosePSNR < 15 {
		t.Fatalf("full-dose FBP PSNR %.2f dB implausibly low", d.FullDosePSNR)
	}
}

// The paper's headline accuracy experiment: prepending Enhancement AI
// improves classification of degraded scans.
func TestAccuracyExperimentShape(t *testing.T) {
	r := RunAccuracy(QuickConfig())

	// Table 8 shape: enhancement reduces MSE and raises MS-SSIM.
	if r.MSEYFX >= r.MSEYX {
		t.Errorf("Table 8: enhancement did not reduce MSE (%.5f vs %.5f)", r.MSEYFX, r.MSEYX)
	}
	if r.MSSSIMYFX <= r.MSSSIMYX {
		t.Errorf("Table 8: enhancement did not raise MS-SSIM (%.4f vs %.4f)",
			r.MSSSIMYFX, r.MSSSIMYX)
	}

	// Figure 13 shape: the enhanced pipeline is at least as good, and
	// better on at least one of accuracy / AUC.
	if r.Enhanced.AUC < r.Plain.AUC && r.Enhanced.Accuracy < r.Plain.Accuracy {
		t.Errorf("Figure 13: enhancement helped neither accuracy (%.3f vs %.3f) nor AUC (%.3f vs %.3f)",
			r.Enhanced.Accuracy, r.Plain.Accuracy, r.Enhanced.AUC, r.Plain.AUC)
	}

	// Figure 11: both loss curves decrease.
	ec, cc := r.EnhancerCurve, r.ClassifierCurve
	if ec[len(ec)-1] >= ec[0] {
		t.Errorf("enhancer loss curve did not decrease: %v", ec)
	}
	if cc[len(cc)-1] >= cc[0] {
		t.Errorf("classifier loss curve did not decrease: %v", cc)
	}

	// Renderers must not panic and must mention their paper anchors.
	for name, s := range map[string]string{
		"Table8":   Table8(r),
		"Table9":   Table9(r),
		"Figure11": Figure11(r),
		"Figure12": Figure12(r),
		"Figure13": Figure13(r),
	} {
		if len(s) < 40 {
			t.Errorf("%s renders too little:\n%s", name, s)
		}
	}
}

func TestSectionTimingsRenders(t *testing.T) {
	out := SectionTimings(QuickConfig())
	if !strings.Contains(out, "segmentation") || !strings.Contains(out, "45.88") {
		t.Fatalf("timings malformed:\n%s", out)
	}
}

func TestTurnaroundSpeedup(t *testing.T) {
	out := Turnaround(QuickConfig())
	if !strings.Contains(out, "speedup") {
		t.Fatalf("turnaround malformed:\n%s", out)
	}
}

func TestDenoisingAblationShape(t *testing.T) {
	a := RunDenoisingAblation(QuickConfig())
	// Both advanced methods must beat plain FBP at this dose.
	if a.SARTMSE >= a.FBPMSE {
		t.Errorf("SART MSE %.5f should beat FBP %.5f", a.SARTMSE, a.FBPMSE)
	}
	if a.DDnetMSE >= a.FBPMSE {
		t.Errorf("DDnet MSE %.5f should beat FBP %.5f", a.DDnetMSE, a.FBPMSE)
	}
	if out := Ablation(QuickConfig()); !strings.Contains(out, "SART") {
		t.Fatalf("ablation table malformed:\n%s", out)
	}
}

func TestDimensionalityComparison(t *testing.T) {
	r := RunDimensionality(QuickConfig())
	if r.AUC2D < 0 || r.AUC2D > 1 || r.AUC3D < 0 || r.AUC3D > 1 {
		t.Fatalf("AUCs out of range: %+v", r)
	}
	// At this cohort size neither ordering is guaranteed — the 2D
	// baseline sees D× more (weakly labelled) training samples, which at
	// demo scale can outweigh the 3D context the paper's 305-scan corpus
	// exploits — so the test asserts only that at least one of the two
	// is a working detector. EXPERIMENTS.md discusses the scale effect.
	if r.AUC2D < 0.6 && r.AUC3D < 0.6 {
		t.Fatalf("both classifiers near chance: %+v", r)
	}
	if out := Dimensionality(QuickConfig()); !strings.Contains(out, "3D DenseNet") {
		t.Fatalf("dimensionality table malformed:\n%s", out)
	}
}
