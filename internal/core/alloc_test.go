package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"computecovid19/internal/classify"
	"computecovid19/internal/ctsim"
	"computecovid19/internal/dataset"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/memplan"
	"computecovid19/internal/segment"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// pooledTestVolume builds a small HU volume with a soft-tissue body and
// an air cavity so segmentation produces a non-trivial lung mask.
func pooledTestVolume(rng *rand.Rand, d, h, w int) *volume.Volume {
	v := volume.New(d, h, w)
	for i := range v.Data {
		v.Data[i] = 60 + 10*rng.Float32()
	}
	for z := 0; z < d; z++ {
		for y := h / 4; y < 3*h/4; y++ {
			for x := w / 4; x < 3*w/4; x++ {
				v.Data[z*h*w+y*w+x] = -800 + 30*rng.Float32()
			}
		}
	}
	return v
}

func pooledTestPipeline(seed int64) *Pipeline {
	rng := rand.New(rand.NewSource(seed))
	p := NewPipeline(ddnet.New(rng, ddnet.TinyConfig()), classify.New(rng, classify.SmallConfig()))
	p.Warm()
	return p
}

// refEnhance is the pre-pooled per-slice enhancement orchestration:
// fresh tensors, per-slice Enhance calls, fresh output volume.
func refEnhance(p *Pipeline, v *volume.Volume) *volume.Volume {
	out := volume.New(v.D, v.H, v.W)
	for z := 0; z < v.D; z++ {
		img := tensor.New(v.H, v.W)
		src := v.Slice(z)
		for i, hu := range src {
			img.Data[i] = float32(ctsim.NormalizeHU(float64(hu), p.WindowLo, p.WindowHi))
		}
		enh := p.Enhancer.Enhance(img)
		dst := out.Slice(z)
		for i, val := range enh.Data {
			dst[i] = float32(ctsim.DenormalizeHU(float64(val), p.WindowLo, p.WindowHi))
		}
	}
	return out
}

// refClassify is the pre-pooled segmentation + classification tail:
// segment.Apply, a masked clone, a windowed clone, graph Predict.
func refClassify(p *Pipeline, enhanced *volume.Volume) (float64, []bool) {
	masked, mask := segment.Apply(enhanced, p.SegOpts)
	return p.Classifier.Predict(masked.Normalized(p.WindowLo, p.WindowHi)), mask
}

func requireSameVolumeBits(t *testing.T, want, got *volume.Volume, label string) {
	t.Helper()
	if want.D != got.D || want.H != got.H || want.W != got.W {
		t.Fatalf("%s: dimensions differ", label)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: voxel %d: %08x != %08x", label, i,
				math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestEnhanceVolumePooledBitIdentical pins the pooled enhancement
// orchestration (recycled volumes, staged slices, arena forward) to the
// pre-pooled per-slice path, cold, warm, into a caller volume, and with
// release poisoning on.
func TestEnhanceVolumePooledBitIdentical(t *testing.T) {
	p := pooledTestPipeline(21)
	v := pooledTestVolume(rand.New(rand.NewSource(22)), 2, 32, 32)
	want := refEnhance(p, v)

	got := p.Enhance(v)
	requireSameVolumeBits(t, want, got, "cold")
	p.RecycleVolume(got)

	got = p.Enhance(v) // reuses the recycled volume and warm arena
	requireSameVolumeBits(t, want, got, "warm")

	out := volume.New(v.D, v.H, v.W)
	p.EnhanceInto(context.Background(), v, out)
	requireSameVolumeBits(t, want, out, "EnhanceInto")

	prev := tensor.SetMemDebug(true)
	defer tensor.SetMemDebug(prev)
	p.EnhanceInto(context.Background(), v, out)
	requireSameVolumeBits(t, want, out, "memdebug")
}

// planBudget is the largest |Δprobability| allowed between the warm
// pipeline's classifier and the graph forward. A warm classifier runs a
// compiled plan, whose BatchNorm folding reassociates each layer's
// arithmetic by a few float32 ULPs; a wrong fold moves the probability
// by far more.
const planBudget = 1e-6

// TestClassifyPooledBitIdentical pins the pooled segmentation +
// classification tail to the pre-pooled segment.Apply + Normalized +
// Predict composition: the identical mask, and the probability within
// planBudget.
func TestClassifyPooledBitIdentical(t *testing.T) {
	p := pooledTestPipeline(23)
	v := pooledTestVolume(rand.New(rand.NewSource(24)), 8, 32, 32)
	wantProb, wantMask := refClassify(p, v)

	check := func(label string) {
		t.Helper()
		r := p.Classify(v)
		if d := math.Abs(r.Probability - wantProb); d > planBudget {
			t.Fatalf("%s: probability %v, graph %v: |Δ| %.3g > %g", label, r.Probability, wantProb, d, planBudget)
		}
		if r.Positive != (r.Probability >= p.Threshold) {
			t.Fatalf("%s: positive call mismatch", label)
		}
		if len(r.LungMask) != len(wantMask) {
			t.Fatalf("%s: mask length %d != %d", label, len(r.LungMask), len(wantMask))
		}
		for i := range wantMask {
			if r.LungMask[i] != wantMask[i] {
				t.Fatalf("%s: mask voxel %d differs", label, i)
			}
		}
		p.RecycleResult(r)
	}
	check("cold")
	check("warm")

	prev := tensor.SetMemDebug(true)
	defer tensor.SetMemDebug(prev)
	check("memdebug")
}

// TestAllocsWarmPipelineEnhance pins zero steady-state heap allocations
// for warm whole-volume enhancement, both writing into a caller volume
// and through the Enhance + RecycleVolume cycle, on one proc and on two.
// Three slices on two procs take both planner branches in one call: a
// slice-split pair, then a kernel-split lone slice.
func TestAllocsWarmPipelineEnhance(t *testing.T) {
	p := pooledTestPipeline(25)
	v := pooledTestVolume(rand.New(rand.NewSource(26)), 3, 32, 32)
	out := volume.New(v.D, v.H, v.W)
	ctx := context.Background()

	into := func() { p.EnhanceInto(ctx, v, out) }
	cycle := func() { p.RecycleVolume(p.Enhance(v)) }
	for _, procs := range []int{1, 2} {
		if procs > 1 && memplan.RaceEnabled {
			continue // every dispatch recycles jobs through sync.Pools
		}
		if n := memplan.AllocsPerRun(procs, 50, into); n != 0 {
			t.Fatalf("warm EnhanceInto on %d procs allocates %v allocs/op, want 0", procs, n)
		}
		if n := memplan.AllocsPerRun(procs, 50, cycle); n != 0 {
			t.Fatalf("warm Enhance+RecycleVolume on %d procs allocates %v allocs/op, want 0", procs, n)
		}
	}
}

// TestEnhanceSplitBitIdentical pins EnhanceInto to the serial per-slice
// reference (computed on one proc) at depths covering every shape of
// the planner — one slice (kernel split), an even depth (slice split),
// an odd one (a slice-split group, then a lone kernel-split slice) and
// a deep one — on 1, 2 and 4 procs.
func TestEnhanceSplitBitIdentical(t *testing.T) {
	p := pooledTestPipeline(35)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, d := range []int{1, 2, 3, 8} {
		v := pooledTestVolume(rand.New(rand.NewSource(int64(36+d))), d, 32, 32)
		runtime.GOMAXPROCS(1)
		want := refEnhance(p, v)
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			out := volume.New(d, v.H, v.W)
			p.EnhanceInto(context.Background(), v, out)
			requireSameVolumeBits(t, want, out, fmt.Sprintf("D=%d on %d procs", d, procs))
		}
	}
}

// TestEnhancePooledConcurrent runs warm EnhanceInto from several
// goroutines sharing one pipeline, each forward itself split across
// two workers; under -race this covers slice-split groups sharing the
// pipeline arena, scratch list and worker pool with other scans.
func TestEnhancePooledConcurrent(t *testing.T) {
	p := pooledTestPipeline(45)
	v := pooledTestVolume(rand.New(rand.NewSource(46)), 3, 32, 32)
	want := refEnhance(p, v)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := volume.New(v.D, v.H, v.W)
			for k := 0; k < 3; k++ {
				p.EnhanceInto(context.Background(), v, out)
				for i := range want.Data {
					if math.Float32bits(out.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Errorf("concurrent EnhanceInto changed voxel %d", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// cohortVolume is the first phantom of a dataset cohort at d×size×size:
// lungs, body wall and lesions, so segmentation meets many row runs,
// components and holes, where pooledTestVolume's air square has one.
func cohortVolume(d, size int) *volume.Volume {
	cfg := dataset.DefaultCohortConfig()
	cfg.Count, cfg.Depth, cfg.Size = 1, d, size
	return dataset.BuildCohort(cfg)[0].Volume
}

// TestAllocsWarmPipelineClassify pins zero steady-state heap
// allocations for a warm Classify + RecycleResult cycle — segmentation,
// masking, windowing, and the classifier forward included — on one
// proc and on two, where the classifier's convolution tiles split
// across the worker pool. The cohort phantom comes second, so the
// segmenter's run list grows past the air square's during its warm-up
// and must then hold steady.
func TestAllocsWarmPipelineClassify(t *testing.T) {
	p := pooledTestPipeline(27)
	for _, v := range []*volume.Volume{
		pooledTestVolume(rand.New(rand.NewSource(28)), 8, 32, 32),
		cohortVolume(8, 32),
	} {
		cycle := func() { p.RecycleResult(p.Classify(v)) }
		for _, procs := range []int{1, 2} {
			if procs > 1 && memplan.RaceEnabled {
				continue // every dispatch recycles jobs through sync.Pools
			}
			if n := memplan.AllocsPerRun(procs, 5, cycle); n != 0 {
				t.Fatalf("warm Classify+RecycleResult on %d procs allocates %v allocs/op, want 0", procs, n)
			}
		}
	}
}

// TestClassifyPooledConcurrent runs warm classifications from several
// goroutines sharing one pipeline (the serving topology) and checks
// every result; under -race this also exercises the arena, scratch free
// list, and mask recycling for data races.
func TestClassifyPooledConcurrent(t *testing.T) {
	p := pooledTestPipeline(29)
	v := pooledTestVolume(rand.New(rand.NewSource(30)), 8, 32, 32)
	want := p.Classify(v).Probability

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				r := p.Classify(v)
				if r.Probability != want {
					t.Errorf("concurrent probability %v != %v", r.Probability, want)
				}
				p.RecycleResult(r)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkEnhancePooled measures the warm whole-volume enhancement hot
// path on two slices, which take the slice split on two or more procs;
// the CI alloc gate holds its allocs/op at zero.
func BenchmarkEnhancePooled(b *testing.B) { benchEnhancePooled(b, 2, 32) }

// BenchmarkEnhancePooledOneSlice is the same on one slice, which always
// takes the kernel split, so both planner branches stay under
// benchcheck's timing and allocation gates.
func BenchmarkEnhancePooledOneSlice(b *testing.B) { benchEnhancePooled(b, 1, 32) }

// BenchmarkEnhancePooledServed is the same at the served shape, an
// 8×64×64 scan: what the enhance.direct workload of bench/ runs, for
// benchcheck and for a -cpuprofile of the enhancement alone.
func BenchmarkEnhancePooledServed(b *testing.B) { benchEnhancePooled(b, 8, 64) }

func benchEnhancePooled(b *testing.B, d, size int) {
	p := pooledTestPipeline(31)
	v := pooledTestVolume(rand.New(rand.NewSource(32)), d, size, size)
	out := volume.New(v.D, v.H, v.W)
	ctx := context.Background()
	// Warm past the arena's growth: concurrent slice-split groups
	// overlap differently from call to call, and the arena keeps growing
	// until it has covered the widest overlap, a few calls in.
	for range 20 {
		p.EnhanceInto(ctx, v, out)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.EnhanceInto(ctx, v, out)
	}
}

// BenchmarkClassifyPooled measures the warm segmentation +
// classification hot path; the CI alloc gate holds its allocs/op at
// zero.
func BenchmarkClassifyPooled(b *testing.B) {
	benchClassifyPooled(b, pooledTestVolume(rand.New(rand.NewSource(34)), 8, 32, 32))
}

// BenchmarkClassifyPooledServed is the same at the served shape on a
// cohort phantom, an 8×64×64 scan with real lungs: what the
// classify.direct workload of bench/ runs, for benchcheck and for a
// -cpuprofile of segmentation and classification.
func BenchmarkClassifyPooledServed(b *testing.B) { benchClassifyPooled(b, cohortVolume(8, 64)) }

func benchClassifyPooled(b *testing.B, v *volume.Volume) {
	p := pooledTestPipeline(33)
	// Warm past the pools' growth, as benchEnhancePooled does: on two or
	// more procs the convolution tiles' jobs and panels overlap
	// differently from call to call.
	for range 5 {
		p.RecycleResult(p.Classify(v))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.RecycleResult(p.Classify(v))
	}
}
