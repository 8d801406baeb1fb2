// External test package: ag (used for the autograd reference) imports
// kernels for its inference fast path, so an in-package test would
// create an import cycle.
package kernels_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"computecovid19/internal/ag"
	"computecovid19/internal/ddnet"
	. "computecovid19/internal/kernels"
	"computecovid19/internal/tensor"
)

// paperArch and tinyArch are the shapes of ddnet.PaperConfig and
// ddnet.TinyConfig.
func paperArch() Arch { return ddnet.PaperConfig().Arch() }
func tinyArch() Arch  { return ddnet.TinyConfig().Arch() }

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32() - 0.5
	}
	return s
}

func maxDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(float64(a[i] - b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func TestConvMatchesAutogradReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{1, 3, 5, 7} {
		s := ConvShape{InC: 3, H: 9, W: 11, OutC: 4, K: k}
		x := randSlice(rng, s.InLen())
		w := randSlice(rng, s.WeightLen())
		ref := ag.Conv2D(
			ag.Const(tensor.FromSlice(x, 1, s.InC, s.H, s.W)),
			ag.Const(tensor.FromSlice(w, s.OutC, s.InC, s.K, s.K)),
			nil)
		for v := Baseline; v <= REFPFLU; v++ {
			out := make([]float32, s.OutLen())
			v.Conv(x, w, out, s, 1)
			if d := maxDiff(out, ref.T.Data); d > 1e-4 {
				t.Fatalf("k=%d rung %s differs from reference by %v", k, v, d)
			}
		}
	}
}

func TestDeconvVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range []int{1, 3, 5} {
		s := ConvShape{InC: 3, H: 8, W: 10, OutC: 4, K: k}
		x := randSlice(rng, s.InLen())
		w := randSlice(rng, s.InC*s.OutC*s.K*s.K)
		base := make([]float32, s.OutLen())
		Baseline.Deconv(x, w, base, s, 1)
		for v := REF; v <= REFPFLU; v++ {
			out := make([]float32, s.OutLen())
			v.Deconv(x, w, out, s, 1)
			if d := maxDiff(out, base); d > 1e-4 {
				t.Fatalf("k=%d rung %s differs from scatter baseline by %v", k, v, d)
			}
		}
	}
}

func TestDeconvMatchesAutogradReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := ConvShape{InC: 2, H: 7, W: 7, OutC: 3, K: 5}
	x := randSlice(rng, s.InLen())
	w := randSlice(rng, s.InC*s.OutC*s.K*s.K)
	ref := ag.ConvTranspose2D(
		ag.Const(tensor.FromSlice(x, 1, s.InC, s.H, s.W)),
		ag.Const(tensor.FromSlice(w, s.InC, s.OutC, s.K, s.K)),
		nil)
	out := make([]float32, s.OutLen())
	Baseline.Deconv(x, w, out, s, 1)
	if d := maxDiff(out, ref.T.Data); d > 1e-4 {
		t.Fatalf("scatter deconv differs from autograd ConvTranspose2D by %v", d)
	}
}

func TestKernelsParallelDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := ConvShape{InC: 4, H: 12, W: 12, OutC: 6, K: 3}
	x := randSlice(rng, s.InLen())
	w := randSlice(rng, s.WeightLen())
	serial := make([]float32, s.OutLen())
	REFPFLU.Conv(x, w, serial, s, 1)
	par := make([]float32, s.OutLen())
	REFPFLU.Conv(x, w, par, s, 4)
	if d := maxDiff(serial, par); d != 0 {
		t.Fatalf("parallel conv differs from serial by %v", d)
	}
	wd := randSlice(rng, s.InC*s.OutC*s.K*s.K)
	ds := make([]float32, s.OutLen())
	Baseline.Deconv(x, wd, ds, s, 1)
	dp := make([]float32, s.OutLen())
	Baseline.Deconv(x, wd, dp, s, 4)
	if d := maxDiff(ds, dp); d != 0 {
		t.Fatalf("parallel scatter deconv differs from serial by %v", d)
	}
}

func TestLeakyReLUAndBatchNorm(t *testing.T) {
	x := []float32{-2, -0.5, 0, 1, 3}
	LeakyReLU(x, 0.1, 2)
	want := []float32{-0.2, -0.05, 0, 1, 3}
	if d := maxDiff(x, want); d > 1e-6 {
		t.Fatalf("LeakyReLU = %v", x)
	}
	// BN with γ=2, β=1, μ=1, σ²=4 → y = 2·(x−1)/2 + 1 = x.
	y := []float32{1, 3, 5, 7}
	BatchNormInfer(y, y, 1, 4, []float32{2}, []float32{1}, []float32{1}, []float32{4}, 0, 1)
	want = []float32{1, 3, 5, 7}
	if d := maxDiff(y, want); d > 1e-5 {
		t.Fatalf("BatchNormInfer = %v, want identity here", y)
	}
}

// Table 6 of the paper: a 512×512×32 feature map with 32 output channels
// and a 5×5 filter.
func TestTable6Counts(t *testing.T) {
	s := ConvShape{InC: 32, H: 512, W: 512, OutC: 32, K: 5}
	conv := ConvCounters(s)
	// Paper: 13421.7×10⁶ loads and flops, 8.4×10⁶ stores.
	if got := float64(conv.Loads) / 1e6; math.Abs(got-13421.7) > 1 {
		t.Fatalf("conv loads = %.1fM, paper says 13421.7M", got)
	}
	if got := float64(conv.Flops) / 1e6; math.Abs(got-13421.7) > 1 {
		t.Fatalf("conv flops = %.1fM, paper says 13421.7M", got)
	}
	if got := float64(conv.Stores) / 1e6; math.Abs(got-8.4) > 0.1 {
		t.Fatalf("conv stores = %.1fM, paper says 8.4M", got)
	}
	if DeconvCounters(s) != conv {
		t.Fatal("deconv counters must equal conv counters (Table 6)")
	}

	pool := PoolCounters(32, 512, 512)
	if got := float64(pool.Loads) / 1e6; math.Abs(got-18.9) > 0.1 {
		t.Fatalf("pool loads = %.1fM, paper says 18.9M", got)
	}
	if got := float64(pool.Stores) / 1e6; math.Abs(got-2.1) > 0.1 {
		t.Fatalf("pool stores = %.1fM, paper says 2.1M", got)
	}
	if pool.Flops != 0 {
		t.Fatal("pooling has no flops in the paper's accounting")
	}

	unpool := UnpoolCounters(32, 512, 512)
	if got := float64(unpool.Loads) / 1e6; math.Abs(got-134.3) > 0.3 {
		t.Fatalf("unpool loads = %.1fM, paper says 134.3M", got)
	}
	if got := float64(unpool.Stores) / 1e6; math.Abs(got-33.5) > 0.1 {
		t.Fatalf("unpool stores = %.1fM, paper says 33.5M", got)
	}
	if got := float64(unpool.Flops) / 1e6; math.Abs(got-469.7) > 1 {
		t.Fatalf("unpool flops = %.1fM, paper says 469.7M", got)
	}

	lr := LeakyReLUCounters(32 * 512 * 512)
	if got := float64(lr.Loads) / 1e6; math.Abs(got-8.4) > 0.1 {
		t.Fatalf("leaky-relu loads = %.1fM, paper says 8.4M", got)
	}

	bn := BatchNormCounters(32 * 512 * 512)
	if got := float64(bn.Loads) / 1e6; math.Abs(got-41.9) > 0.1 {
		t.Fatalf("batchnorm loads = %.1fM, paper says 41.9M", got)
	}
	if got := float64(bn.Stores) / 1e6; math.Abs(got-8.4) > 0.1 {
		t.Fatalf("batchnorm stores = %.1fM, paper says 8.4M", got)
	}
}

// Property: analytic conv counters scale linearly in channels.
func TestCountersLinearity(t *testing.T) {
	f := func(c uint8) bool {
		ci := int(c%8) + 1
		a := ConvCounters(ConvShape{InC: ci, H: 16, W: 16, OutC: 4, K: 3})
		b := ConvCounters(ConvShape{InC: 2 * ci, H: 16, W: 16, OutC: 4, K: 3})
		return b.Loads == 2*a.Loads && b.Flops == 2*a.Flops && b.Stores == a.Stores
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The paper states convolution does ≈1.87× the flops of deconvolution
// in DDnet (37 conv vs 8 deconv layers). With the global shortcuts'
// concatenated channels counted as deconvolution input (as our faithful
// decoder wiring implies) the ratio comes out lower; counting the
// decoder without skip channels reproduces the paper's ≈1.87. Both
// accountings keep conv and deconv within the same order of magnitude,
// which is what Tables 4–7 depend on; EXPERIMENTS.md records the
// difference.
func TestDDnetConvDeconvFlopRatio(t *testing.T) {
	cc := DDnetCounts(paperArch(), 512)
	ratio := float64(cc.Conv.Flops) / float64(cc.Deconv.Flops)
	if ratio < 0.5 || ratio > 2.6 {
		t.Fatalf("conv/deconv flop ratio = %.2f, expected same order of magnitude", ratio)
	}
	// Both kernel classes are individually in the multi-GFLOP range at
	// 512²; neither may degenerate.
	if cc.Conv.Flops < 1e9 || cc.Deconv.Flops < 1e9 {
		t.Fatalf("implausibly small counts: %+v", cc)
	}
}

// Instrumented micro-kernel: count actual loop iterations and compare
// with the analytic counters for small shapes.
func TestAnalyticCountsMatchInstrumentedConv(t *testing.T) {
	s := ConvShape{InC: 2, H: 6, W: 6, OutC: 3, K: 3}
	var loads, stores, flops uint64
	pad := s.K / 2
	for co := 0; co < s.OutC; co++ {
		for oy := 0; oy < s.H; oy++ {
			for ox := 0; ox < s.W; ox++ {
				for ci := 0; ci < s.InC; ci++ {
					for ky := 0; ky < s.K; ky++ {
						for kx := 0; kx < s.K; kx++ {
							// Table 6 convention: every tap counts, with
							// zero padding materialized.
							_ = pad
							loads += 2
							flops += 2
						}
					}
				}
				stores++
			}
		}
	}
	got := ConvCounters(s)
	if got.Loads != loads || got.Stores != stores || got.Flops != flops {
		t.Fatalf("analytic %+v vs instrumented loads=%d stores=%d flops=%d",
			got, loads, stores, flops)
	}
}

// Every rung must time all three kernel classes.
func TestRunDDnetImplProducesTimings(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for v := Baseline; v <= REFPFLU; v++ {
		tm := RunDDnet(tinyArch(), 32, v, 1, rng)
		if tm.Conv <= 0 || tm.Deconv <= 0 || tm.Other <= 0 {
			t.Fatalf("rung %s: timings must be positive: %+v", v, tm)
		}
		if tm.Total() != tm.Conv+tm.Deconv+tm.Other {
			t.Fatal("Total must be the sum of the classes")
		}
	}
}

// TestTraceRejectsIndivisibleSize feeds the shape trace, the operation
// counts and the timer sizes DDnet cannot run: at 40×40 the paper
// architecture's decoder would concatenate a 4×4 up-sample with a 5×5
// skip. Each must panic on the caller's goroutine before it walks.
func TestTraceRejectsIndivisibleSize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Trace 40x40", func() { Trace(paperArch(), 40, 40) }},
		{"Trace 48x40", func() { Trace(paperArch(), 48, 40) }},
		{"DDnetCounts 40", func() { DDnetCounts(paperArch(), 40) }},
		{"RunDDnet 34", func() { RunDDnet(tinyArch(), 34, REFPFLU, 2, rng) }},
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			c.run()
			return ""
		}()
		if !strings.Contains(msg, "divisible by 2^Stages") {
			t.Errorf("%s: recovered %q, want the size check's panic", c.name, msg)
		}
	}
	ops := Trace(paperArch(), 48, 48)
	if out := ops[len(ops)-1].Out; out != (Dims{1, 48, 48}) {
		t.Fatalf("Trace(paperArch(), 48, 48) ends at %+v, want 1×48×48", out)
	}
}

func TestScatterSlowerThanGather(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	rng := rand.New(rand.NewSource(8))
	cfg := tinyArch()
	// One warmup, then compare. The scatter deconvolution's recurring
	// global read-modify-writes must cost more than the gather version.
	RunDDnet(cfg, 64, REF, 1, rng)
	base := RunDDnet(cfg, 64, Baseline, 1, rng)
	ref := RunDDnet(cfg, 64, REF, 1, rng)
	if base.Deconv <= ref.Deconv {
		t.Logf("warning: scatter (%v) not slower than gather (%v) at this size",
			base.Deconv, ref.Deconv)
	}
}

func TestVariantStrings(t *testing.T) {
	for _, v := range []Variant{Baseline, REF, REFPF, REFPFLU} {
		if v.String() == "Unknown" || v.String() == "" {
			t.Fatalf("variant %d has no name", v)
		}
	}
}

// benchRungs names the rung benchmarks' sub-benchmarks in ladder order;
// scripts/benchcheck.sh diffs their ns/op against a baseline checkout,
// so keep the names stable. "fused" is the ConvFused GEMM every forward
// runs.
var benchRungs = [...]string{Baseline: "naive", REF: "ref", REFPF: "ref+pf", REFPFLU: "ref+pf+lu"}

// The rung benchmarks drive every Variant and the production GEMM on a
// DDnet-like 5×5 shape.
func BenchmarkConvRungs(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	s := ConvShape{InC: 8, H: 64, W: 64, OutC: 8, K: 5}
	x := randSlice(rng, s.InLen())
	w := randSlice(rng, s.WeightLen())
	out := make([]float32, s.OutLen())
	for v := Baseline; v <= REFPFLU; v++ {
		b.Run(benchRungs[v], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.Conv(x, w, out, s, 1)
			}
		})
	}
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConvCompact(x, w, out, s, 1, Epilogue{})
		}
	})
}

// BenchmarkDeconvRungs times "fused" on weights flipped once outside
// the loop, as the warm plan runs a transposed layer.
func BenchmarkDeconvRungs(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	s := ConvShape{InC: 8, H: 64, W: 64, OutC: 8, K: 5}
	x := randSlice(rng, s.InLen())
	w := randSlice(rng, s.InC*s.OutC*s.K*s.K)
	out := make([]float32, s.OutLen())
	for v := Baseline; v <= REFPFLU; v++ {
		b.Run(benchRungs[v], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v.Deconv(x, w, out, s, 1)
			}
		})
	}
	flipped := make([]float32, len(w))
	FlipDeconvWeights(w, flipped, s)
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConvCompact(x, flipped, out, s, 1, Epilogue{})
		}
	})
}

// TestConvShapeLens pins the buffer lengths of a 2D shape (D == 0) and
// of a volumetric one: depth multiplies the activations, and the
// volumetric kernel has K³ taps per channel pair.
func TestConvShapeLens(t *testing.T) {
	s := ConvShape{InC: 2, H: 5, W: 7, OutC: 3, K: 3}
	if s.InLen() != 70 || s.OutLen() != 105 || s.WeightLen() != 54 {
		t.Fatalf("2D lens %d/%d/%d, want 70/105/54", s.InLen(), s.OutLen(), s.WeightLen())
	}
	s.D = 4
	if s.InLen() != 280 || s.OutLen() != 420 || s.WeightLen() != 162 {
		t.Fatalf("D=4 lens %d/%d/%d, want 280/420/162", s.InLen(), s.OutLen(), s.WeightLen())
	}
}
