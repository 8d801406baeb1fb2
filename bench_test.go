package computecovid19

// One benchmark per table and figure of the paper's evaluation (§5).
// Each benchmark regenerates its artifact through internal/experiments
// and reports domain-specific metrics alongside ns/op. Run with
//
//	go test -bench=. -benchmem
//
// cmd/ccbench prints the rendered tables themselves.

import (
	"math/rand"
	"testing"

	"computecovid19/internal/ddnet"
	"computecovid19/internal/device"
	"computecovid19/internal/distrib"
	"computecovid19/internal/experiments"
	"computecovid19/internal/kernels"
)

func quick() experiments.Config { return experiments.QuickConfig() }

func BenchmarkTable1_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(quick()); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2_DDnetShapes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Table2(quick()); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3_DistributedTraining(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table3Data(quick())
		b.ReportMetric(rows[0].ProjectedRuntimeSec, "proj-1node-s")
		b.ReportMetric(rows[7].ProjectedRuntimeSec, "proj-8node-b64-s")
		b.ReportMetric(rows[0].MeasuredMSSSIM*100, "msssim-b1-%")
		b.ReportMetric(rows[7].MeasuredMSSSIM*100, "msssim-b64-%")
	}
}

func BenchmarkTable4_HeterogeneousInference(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table4Data()
		b.ReportMetric(rows[0].OpenCLSec, "v100-opencl-s")
		b.ReportMetric(rows[4].OpenCLSec, "cpu-opencl-s")
		b.ReportMetric(rows[5].OpenCLSec, "fpga-opencl-s")
	}
}

func BenchmarkTable5_KernelTimes(b *testing.B) {
	cc := kernels.DDnetCounts(ddnet.PaperConfig().Arch(), 512)
	v100, _ := device.PlatformByName("Nvidia V100 GPU")
	for i := 0; i < b.N; i++ {
		t := v100.Project(cc, kernels.REFPFLU, false)
		b.ReportMetric(t.Conv, "v100-conv-s")
		b.ReportMetric(t.Deconv, "v100-deconv-s")
	}
}

func BenchmarkTable5_MeasuredKernelsThisMachine(b *testing.B) {
	// Real Go-kernel DDnet inference on this CPU (reduced size), the
	// measured analogue of the Table 5 CPU row.
	rng := rand.New(rand.NewSource(1))
	cfg := ddnet.PaperConfig()
	b.ResetTimer()
	var total kernels.Timing
	for i := 0; i < b.N; i++ {
		total.Add(kernels.RunDDnetImpl(cfg.Arch(), 64, kernels.MustSelect("ref+pf+lu"), 0, rng))
	}
	n := float64(b.N)
	b.ReportMetric(total.Conv.Seconds()/n, "conv-s/op")
	b.ReportMetric(total.Deconv.Seconds()/n, "deconv-s/op")
	b.ReportMetric(total.Other.Seconds()/n, "other-s/op")
}

func BenchmarkTable6_OpCounts(b *testing.B) {
	s := kernels.ConvShape{InC: 32, H: 512, W: 512, OutC: 32, K: 5}
	for i := 0; i < b.N; i++ {
		c := kernels.ConvCounters(s)
		b.ReportMetric(float64(c.Loads)/1e6, "conv-loads-M")
		b.ReportMetric(float64(c.Flops)/1e6, "conv-flops-M")
	}
}

func BenchmarkTable7_OptimizationLadder(b *testing.B) {
	// Measured on this machine: the scatter→gather refactoring is the
	// dominant win, exactly the paper's Table 7 story.
	rng := rand.New(rand.NewSource(2))
	cfg := ddnet.PaperConfig()
	names := []string{"baseline-s", "ref-s", "refpf-s", "refpflu-s"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for vi, rung := range kernels.Names()[:4] {
			t := kernels.RunDDnetImpl(cfg.Arch(), 48, kernels.MustSelect(rung), 0, rng)
			b.ReportMetric(t.Total().Seconds(), names[vi])
		}
	}
}

func BenchmarkTable8_EnhancementAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAccuracy(quick())
		b.ReportMetric(r.MSEYX, "mse-yx")
		b.ReportMetric(r.MSEYFX, "mse-yfx")
		b.ReportMetric(r.MSSSIMYX*100, "msssim-yx-%")
		b.ReportMetric(r.MSSSIMYFX*100, "msssim-yfx-%")
	}
}

func BenchmarkTable9_Figure13_AccuracyROC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAccuracy(quick())
		b.ReportMetric(r.Plain.Accuracy*100, "plain-acc-%")
		b.ReportMetric(r.Enhanced.Accuracy*100, "enh-acc-%")
		b.ReportMetric(r.Plain.AUC, "plain-auc")
		b.ReportMetric(r.Enhanced.AUC, "enh-auc")
	}
}

func BenchmarkFigure2_Epidemic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Figure2(quick()); len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure8_LowDoseSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d := experiments.Figure8Run(quick())
		b.ReportMetric(d.FullDosePSNR, "fulldose-psnr-dB")
		b.ReportMetric(d.LowDosePSNR, "lowdose-psnr-dB")
	}
}

func BenchmarkFigure11_12_TrainingAndEnhancement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunAccuracy(quick())
		curve := r.EnhancerCurve
		b.ReportMetric(curve[0], "enh-loss-first")
		b.ReportMetric(curve[len(curve)-1], "enh-loss-last")
	}
}

func BenchmarkSectionTimings(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.SectionTimings(quick()); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTurnaround(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := experiments.Turnaround(quick()); len(out) == 0 {
			b.Fatal("empty report")
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblation_DeconvScatterVsGather(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	s := kernels.ConvShape{InC: 16, H: 96, W: 96, OutC: 16, K: 5}
	x := make([]float32, s.InLen())
	w := make([]float32, s.InC*s.OutC*s.K*s.K)
	for i := range x {
		x[i] = rng.Float32()
	}
	for i := range w {
		w[i] = rng.Float32()
	}
	out := make([]float32, s.OutLen())
	b.Run("scatter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.MustSelect("naive").Deconv(x, w, out, s, 1)
		}
	})
	b.Run("gather", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.MustSelect("ref").Deconv(x, w, out, s, 1)
		}
	})
	b.Run("gather-unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernels.MustSelect("ref+pf+lu").Deconv(x, w, out, s, 1)
		}
	})
}

func BenchmarkAblation_DenoisingStrategies(b *testing.B) {
	// FBP vs regularized SART vs FBP+DDnet at reduced dose.
	for i := 0; i < b.N; i++ {
		a := experiments.RunDenoisingAblation(quick())
		b.ReportMetric(a.FBPMSE, "fbp-mse")
		b.ReportMetric(a.SARTMSE, "sart-mse")
		b.ReportMetric(a.DDnetMSE, "ddnet-mse")
	}
}

func BenchmarkAblation_DDnetForward(b *testing.B) {
	m := NewDDnet(4, ddnet.TinyConfig())
	rng := rand.New(rand.NewSource(5))
	img := randImage(rng, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Enhance(img)
	}
}

func BenchmarkAblation_FBPReconstruction(b *testing.B) {
	var last experiments.Figure8Data
	for i := 0; i < b.N; i++ {
		last = experiments.Figure8Run(quick())
	}
	b.ReportMetric(last.FullDosePSNR, "psnr-dB")
}

func BenchmarkAblation_RingAllReduce(b *testing.B) {
	const nodes, length = 8, 1 << 16
	vecs := make([][]float32, nodes)
	for i := range vecs {
		vecs[i] = make([]float32, length)
		for j := range vecs[i] {
			vecs[i][j] = float32(i + j)
		}
	}
	b.SetBytes(int64(4 * length * nodes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distrib.RingAllReduce(vecs)
	}
}
