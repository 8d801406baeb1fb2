package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"computecovid19/internal/ag"
	"computecovid19/internal/dataset"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/device"
	"computecovid19/internal/distrib"
	"computecovid19/internal/kernels"
	"computecovid19/internal/metrics"
	"computecovid19/internal/tensor"
)

// Table1 renders the data-source inventory (paper Table 1) together with
// the synthetic substitute used for each source.
func Table1(cfg Config) string {
	t := &table{header: []string{"Data Source", "Contents", "This reproduction"}}
	for _, s := range dataset.PaperSources() {
		t.add(s.Name, s.Contents, s.Substitute)
	}
	return "Table 1: Description of data sources\n" + t.String()
}

// Table2 renders the DDnet layer trace for a 512×512 input — the paper's
// Table 2.
func Table2(cfg Config) string {
	m := ddnet.New(rand.New(rand.NewSource(cfg.Seed)), ddnet.PaperConfig())
	t := &table{header: []string{"Layers", "Output Size", "Details"}}
	for _, l := range m.LayerShapes(512) {
		t.add(l.Name, fmt.Sprintf("%dx%dx%d", l.OutH, l.OutW, l.OutC), l.Details())
	}
	return fmt.Sprintf("Table 2: DDnet layer shapes (%d conv + %d deconv layers)\n%s",
		m.NumConvLayers(), m.NumDeconvLayers(), t.String())
}

// Table3Row is one row of the distributed-training table.
type Table3Row struct {
	Nodes, Batch, Epochs int
	PaperRuntimeSec      float64
	ProjectedRuntimeSec  float64
	MeasuredMSSSIM       float64 // from the reduced-scale real training run
}

// Table3Data runs the Table 3 experiment: the runtime column is
// projected through the fitted T4-cluster model, and the quality column
// is *measured* by genuinely training DDnet with the distrib package's
// synchronous data-parallel trainer at reduced scale — real goroutine
// nodes, real ring all-reduce — so the batch-size/quality trend is an
// actual training result, not a model.
func Table3Data(cfg Config) []Table3Row {
	rows := []Table3Row{
		{Nodes: 1, Batch: 1, Epochs: 50, PaperRuntimeSec: 54886},
		{Nodes: 4, Batch: 8, Epochs: 50, PaperRuntimeSec: 8869},
		{Nodes: 4, Batch: 8, Epochs: 100, PaperRuntimeSec: 17932},
		{Nodes: 4, Batch: 16, Epochs: 50, PaperRuntimeSec: 7678},
		{Nodes: 8, Batch: 8, Epochs: 50, PaperRuntimeSec: 8509},
		{Nodes: 8, Batch: 8, Epochs: 100, PaperRuntimeSec: 17006},
		{Nodes: 8, Batch: 32, Epochs: 50, PaperRuntimeSec: 4645},
		{Nodes: 8, Batch: 64, Epochs: 50, PaperRuntimeSec: 4344},
	}
	cluster := distrib.PaperCluster()
	for i := range rows {
		rows[i].ProjectedRuntimeSec = cluster.TrainingSeconds(rows[i].Nodes, rows[i].Batch, rows[i].Epochs)
	}

	// Reduced-scale measured quality: train on synthetic pairs with the
	// real data-parallel trainer and score MS-SSIM on held-out pairs.
	size, pairsN, epochs := 32, 24, 6
	if cfg.Quick {
		size, pairsN, epochs = 32, 16, 4
	}
	dcfg := dataset.DefaultEnhancementConfig()
	dcfg.Size = size
	dcfg.Count = pairsN + 6
	dcfg.Views = 90
	dcfg.Detectors = 64
	dcfg.DoseDivisor = 1e4 // ≈100 photons/ray: clearly visible noise
	dcfg.Seed = cfg.Seed
	pairs := dataset.BuildEnhancement(dcfg)
	train, test := pairs[:pairsN], pairs[pairsN:]

	for i := range rows {
		if rows[i].Epochs != 50 && !cfg.Quick {
			// 100-epoch rows reuse the 50-epoch measured quality (the
			// paper's own pairs differ by < 0.5 points).
		}
		rows[i].MeasuredMSSSIM = measureDDPQuality(cfg.Seed, train, test, rows[i].Nodes, rows[i].Batch, epochs*rows[i].Epochs/50)
	}
	return rows
}

// measureDDPQuality trains a tiny DDnet with the distributed trainer and
// returns the mean MS-SSIM between enhanced and clean test images.
func measureDDPQuality(seed int64, train, test []dataset.EnhancementPair, nodes, batch, epochs int) float64 {
	if epochs < 1 {
		epochs = 1
	}
	factory := func() distrib.Model {
		return ddnet.New(rand.New(rand.NewSource(seed+100)), ddnet.TinyConfig())
	}
	tr := distrib.NewTrainer(factory, nodes, 3e-3, ddnetShardLoss)

	size := train[0].Clean.Shape[0]
	rng := rand.New(rand.NewSource(seed + 200))
	order := make([]int, len(train))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < epochs; e++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batch {
			end := start + batch
			if end > len(order) {
				end = len(order)
			}
			var xs, ys []*tensor.Tensor
			for _, idx := range order[start:end] {
				xs = append(xs, train[idx].LowDose.Reshape(1, 1, size, size))
				ys = append(ys, train[idx].Clean.Reshape(1, 1, size, size))
			}
			tr.Step(xs, ys)
		}
	}

	m := tr.Master().(*ddnet.DDnet)
	m.SetTraining(false)
	total := 0.0
	for _, p := range test {
		enh := m.Enhance(p.LowDose)
		total += metrics.MSSSIM(p.Clean, enh)
	}
	return total / float64(len(test))
}

// ddnetShardLoss stacks a shard of (1,1,H,W) pairs into one batch and
// applies DDnet's composite loss.
func ddnetShardLoss(m distrib.Model, xs, ys []*tensor.Tensor) *ag.Value {
	net := m.(*ddnet.DDnet)
	h, w := xs[0].Shape[2], xs[0].Shape[3]
	b := len(xs)
	x := tensor.New(b, 1, h, w)
	y := tensor.New(b, 1, h, w)
	for i := range xs {
		copy(x.Data[i*h*w:(i+1)*h*w], xs[i].Data)
		copy(y.Data[i*h*w:(i+1)*h*w], ys[i].Data)
	}
	return ddnet.Loss(net.Forward(ag.Const(x)), ag.Const(y))
}

// Table3 renders the distributed-training table.
func Table3(cfg Config) string {
	rows := Table3Data(cfg)
	t := &table{header: []string{"# Nodes", "Batch", "Epochs",
		"Paper runtime", "Projected runtime", "Measured MS-SSIM (reduced scale)"}}
	for _, r := range rows {
		t.add(fmt.Sprint(r.Nodes), fmt.Sprint(r.Batch), fmt.Sprint(r.Epochs),
			hms(r.PaperRuntimeSec), hms(r.ProjectedRuntimeSec),
			fmt.Sprintf("%.2f%%", r.MeasuredMSSSIM*100))
	}
	return "Table 3: Enhancement AI training (runtimes projected on the paper's T4 cluster;\n" +
		"quality measured by real data-parallel training at reduced scale)\n" + t.String()
}

// Table4Row is one platform row of the inference table.
type Table4Row struct {
	Platform        device.Platform
	PyTorchSec      float64
	HasPyTorch      bool
	OpenCLSec       float64
	PaperPyTorchSec float64 // 0 where the paper shows "–"
	PaperOpenCLSec  float64
}

// Table4Data projects Table 4 for the paper DDnet at 512².
func Table4Data() []Table4Row {
	cc := kernels.DDnetCounts(ddnet.PaperConfig().Arch(), 512)
	paperPT := map[string]float64{
		"Nvidia V100 GPU": 0.22, "Nvidia P100 GPU": 0.73,
		"Nvidia T4 GPU": 1.29, "Intel Xeon Gold 6128 CPU": 5.52,
	}
	paperCL := map[string]float64{
		"Nvidia V100 GPU": 0.10, "Nvidia P100 GPU": 0.25,
		"AMD Radeon Vega Frontier GPU": 0.25, "Nvidia T4 GPU": 0.29,
		"Intel Xeon Gold 6128 CPU": 1.64, "Intel Arria 10 GX 1150 FPGA": 16.74,
	}
	var rows []Table4Row
	for _, p := range device.Catalog() {
		pt, ok := p.PyTorchSeconds(cc)
		rows = append(rows, Table4Row{
			Platform:        p,
			PyTorchSec:      pt,
			HasPyTorch:      ok,
			OpenCLSec:       p.Project(cc, kernels.REFPFLU, p.Kind == device.FPGA).Total(),
			PaperPyTorchSec: paperPT[p.Name],
			PaperOpenCLSec:  paperCL[p.Name],
		})
	}
	return rows
}

// Table4 renders the heterogeneous-inference table, including a measured
// row from this machine's Go kernels (scaled-down image, see note).
func Table4(cfg Config) string {
	t := &table{header: []string{"Platform", "Cores", "BW (GB/s)", "MHz",
		"PyTorch (s)", "OpenCL (s)", "paper PyTorch", "paper OpenCL"}}
	for _, r := range Table4Data() {
		pt, ppt := "–", "–"
		if r.HasPyTorch {
			pt = secs(r.PyTorchSec)
		}
		if r.PaperPyTorchSec > 0 {
			ppt = secs(r.PaperPyTorchSec)
		}
		t.add(r.Platform.Name,
			fmt.Sprintf("%d (%s)", r.Platform.Cores, r.Platform.CoreLabel),
			fmt.Sprintf("%.0f", r.Platform.BandwidthGBs),
			fmt.Sprint(r.Platform.FreqMHz),
			pt, secs(r.OpenCLSec), ppt, secs(r.PaperOpenCLSec))
	}
	body := "Table 4: Inference runtime for Enhancement AI (projected via the roofline model)\n" + t.String()
	body += "\n" + measuredInferenceNote(cfg)
	return body
}

// measuredInferenceNote times this machine's Go port of the paper's
// best OpenCL kernels (the REFPFLU rung, not the GEMM a scan runs) at a
// reduced size and reports them alongside the projections.
func measuredInferenceNote(cfg Config) string {
	size := 128
	if cfg.Quick {
		size = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tm := kernels.RunDDnet(ddnet.PaperConfig().Arch(), size, kernels.REFPFLU, 0, rng)
	return fmt.Sprintf("Measured on this machine (Go kernels, %s, paper DDnet at %d×%d): conv %.3fs deconv %.3fs other %.3fs total %.3fs\n",
		kernels.REFPFLU, size, size, tm.Conv.Seconds(), tm.Deconv.Seconds(), tm.Other.Seconds(), tm.Total().Seconds())
}

// Table5 renders the per-kernel event times (paper Table 5).
func Table5(cfg Config) string {
	cc := kernels.DDnetCounts(ddnet.PaperConfig().Arch(), 512)
	type paperRow struct{ conv, deconv, other float64 }
	paper := map[string]paperRow{
		"Nvidia V100 GPU":              {0.036, 0.059, 0.004},
		"Nvidia P100 GPU":              {0.075, 0.169, 0.005},
		"AMD Radeon Vega Frontier GPU": {0.082, 0.170, 0.005},
		"Nvidia T4 GPU":                {0.123, 0.153, 0.016},
		"Intel Xeon Gold 6128 CPU":     {0.495, 1.078, 0.057},
		"Intel Arria 10 GX 1150 FPGA":  {9.819, 2.839, 3.991},
	}
	t := &table{header: []string{"Platform", "Conv (s)", "Deconv (s)", "Other (s)",
		"paper Conv", "paper Deconv", "paper Other"}}
	for _, p := range device.Catalog() {
		got := p.Project(cc, kernels.REF, p.Kind == device.FPGA)
		if p.Kind != device.FPGA {
			got = p.Project(cc, kernels.REFPFLU, false)
		}
		pr := paper[p.Name]
		t.add(p.Name, secs(got.Conv), secs(got.Deconv), secs(got.Other),
			secs(pr.conv), secs(pr.deconv), secs(pr.other))
	}
	return "Table 5: Event-based kernel times for Enhancement AI inference (projected)\n" + t.String()
}

// Table6 renders the operation counts (paper Table 6), which this
// reproduction computes exactly.
func Table6(cfg Config) string {
	s := kernels.ConvShape{InC: 32, H: 512, W: 512, OutC: 32, K: 5}
	rows := []struct {
		name string
		c    kernels.Counters
	}{
		{"Convolution", kernels.ConvCounters(s)},
		{"Deconvolution", kernels.DeconvCounters(s)},
		{"Pooling", kernels.PoolCounters(32, 512, 512)},
		{"Un-pooling", kernels.UnpoolCounters(32, 512, 512)},
		{"Leaky-ReLU", kernels.LeakyReLUCounters(32 * 512 * 512)},
		{"Batch Normalization", kernels.BatchNormCounters(32 * 512 * 512)},
	}
	t := &table{header: []string{"Kernel", "Loads (10^6)", "Stores (10^6)", "Flops (10^6)"}}
	for _, r := range rows {
		t.add(r.name,
			fmt.Sprintf("%.1f", float64(r.c.Loads)/1e6),
			fmt.Sprintf("%.1f", float64(r.c.Stores)/1e6),
			fmt.Sprintf("%.1f", float64(r.c.Flops)/1e6))
	}
	return "Table 6: Global memory and floating-point operation counts, 512×512×32 input, 5×5 filters (exact)\n" + t.String()
}

// Table7Data projects the optimization ladder for every platform.
func Table7Data() map[string][4]float64 {
	cc := kernels.DDnetCounts(ddnet.PaperConfig().Arch(), 512)
	out := map[string][4]float64{}
	for _, p := range device.Catalog() {
		var row [4]float64
		for v := kernels.Baseline; v <= kernels.REFPFLU; v++ {
			row[v] = p.Project(cc, v, false).Total()
		}
		out[p.Name] = row
	}
	return out
}

// Table7 renders the optimization ladder (paper Table 7), adding a
// measured ladder from this machine's Go kernels.
func Table7(cfg Config) string {
	paper := map[string][4]float64{
		"Nvidia V100 GPU":              {63.82, 0.10, 0.10, 0.10},
		"Nvidia P100 GPU":              {152.08, 0.29, 0.26, 0.25},
		"AMD Radeon Vega Frontier GPU": {219.60, 0.25, 0.25, 0.25},
		"Nvidia T4 GPU":                {59.30, 0.32, 0.31, 0.29},
		"Intel Xeon Gold 6128 CPU":     {6.51, 1.95, 1.69, 1.64},
		"Intel Arria 10 GX 1150 FPGA":  {278.53, 130.62, 127.72, 65.83},
	}
	proj := Table7Data()
	t := &table{header: []string{"Platform", "Baseline", "+REF", "+REF+PF", "+REF+PF+LU",
		"paper: Baseline", "REF", "PF", "LU"}}
	for _, p := range device.Catalog() {
		pr := paper[p.Name]
		pj := proj[p.Name]
		t.add(p.Name, secs(pj[0]), secs(pj[1]), secs(pj[2]), secs(pj[3]),
			secs(pr[0]), secs(pr[1]), secs(pr[2]), secs(pr[3]))
	}

	// Measured ladder at reduced size on this machine.
	size := 96
	if cfg.Quick {
		size = 48
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var measured [4]time.Duration
	for v := kernels.Baseline; v <= kernels.REFPFLU; v++ {
		measured[v] = kernels.RunDDnet(ddnet.PaperConfig().Arch(), size, v, 0, rng).Total()
	}
	note := fmt.Sprintf("Measured on this machine (Go kernels, %d×%d): Baseline %.3fs, +REF %.3fs, +PF %.3fs, +LU %.3fs\n",
		size, size, measured[0].Seconds(), measured[1].Seconds(), measured[2].Seconds(), measured[3].Seconds())
	return "Table 7: DDnet execution time by optimization (projected) — REF: refactoring, PF: prefetching, LU: loop unrolling\n" +
		t.String() + "\n" + note
}

// Table10 renders the qualitative framework comparison (paper Table 10).
func Table10(cfg Config) string {
	t := &table{header: []string{"Framework", "Image enhancement", "Image segmentation",
		"2D/3D", "Data labeling", "CPU", "GPU", "FPGA"}}
	t.add("ComputeCOVID19+", "yes", "yes", "3D", "not required", "yes", "yes", "yes")
	t.add("He et al. [15]", "no", "no", "2D", "manual", "yes", "yes", "no")
	t.add("M-inception [41]", "no", "yes", "2D", "manual", "?", "?", "no")
	t.add("DRE-Net [40]", "no", "yes", "2D", "manual", "?", "?", "no")
	t.add("Li et al. [25]", "no", "yes", "2D", "manual", "?", "yes", "no")
	t.add("DeCoVNet [46]", "no", "yes", "3D", "not required", "?", "yes", "no")
	t.add("Harmon et al. [13]", "no", "yes", "3D", "not required", "no", "yes", "no")
	t.add("Serte et al. [38]", "no", "no", "2D/3D", "not required", "?", "yes", "no")
	return "Table 10: Comparison with existing similar work\n" + t.String()
}
