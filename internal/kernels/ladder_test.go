package kernels_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	. "computecovid19/internal/kernels"
)

// ulpOrder maps a float32 onto the integer line so that adjacent
// representable values differ by 1 (the standard sign-magnitude →
// two's-complement trick).
func ulpOrder(f float32) int64 {
	u := math.Float32bits(f)
	if u&0x80000000 != 0 {
		return -int64(u & 0x7fffffff)
	}
	return int64(u)
}

func ulpDiff(a, b float32) int64 {
	d := ulpOrder(a) - ulpOrder(b)
	if d < 0 {
		d = -d
	}
	return d
}

// maxUlps returns the worst per-element ULP distance between two
// buffers, ignoring elements within absFloor of each other (outputs
// near zero carry no relative-accuracy guarantee after cancellation).
func maxUlps(a, b []float32, absFloor float32) int64 {
	var worst int64
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d <= absFloor {
			continue
		}
		if u := ulpDiff(a[i], b[i]); u > worst {
			worst = u
		}
	}
	return worst
}

// cancelFloor is the absolute-error floor used alongside the ULP
// budget: 1e-5 × ‖ref‖∞ (at least 1e-6). Outputs that nearly cancel
// sit many ULPs from the oracle while being absolutely tiny; scaling
// the floor to the buffer's dynamic range forgives exactly that case,
// while a dropped tap or flipped index perturbs an element by O(‖ref‖∞)
// — four-plus orders of magnitude above the floor.
func cancelFloor(ref []float32) float32 {
	var m float32
	for _, v := range ref {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	f := 1e-5 * m
	if f < 1e-6 {
		f = 1e-6
	}
	return f
}

// oracleBudgetULPs is the documented accuracy contract of the ladder:
// every rung must agree with the Baseline (naive) rung to within this
// many float32 ULPs per element (with cancelFloor's magnitude-scaled
// absolute floor). Bit-identity is impossible in general — the PF rung
// sums per-input-channel partials before combining, the LU rung and
// the GEMM unroll the reduction — and each reassociation legally
// perturbs the result by a few ULPs. 512 ULPs (≈6e-5 relative) is orders of
// magnitude above reassociation noise and orders of magnitude below
// what a dropped tap, flipped index, or off-by-one pad would cause.
const oracleBudgetULPs = 512

// rung is one convolution/deconvolution pair the oracle tests hold to
// the Baseline kernels: the four Variants, then the production pair
// every forward runs (ConvFused with the zero epilogue, DeconvGEMM).
type rung struct {
	name         string
	conv, deconv func(x, w, out []float32, s ConvShape, workers int)
}

func oracleRungs() []rung {
	var rs []rung
	for v := Baseline; v <= REFPFLU; v++ {
		rs = append(rs, rung{v.String(), v.Conv, v.Deconv})
	}
	gemm := func(x, w, out []float32, s ConvShape, workers int) {
		ConvCompact(x, w, out, s, workers, Epilogue{})
	}
	return append(rs, rung{"ConvFused/DeconvGEMM", gemm, DeconvGEMM})
}

// TestRegistryRungsMatchNaiveOracle is the bit-accuracy oracle test:
// every Variant and the production GEMM pair, conv and deconv, serial
// and parallel, across randomized shapes covering DDnet's Table 2
// kernel sizes (1, 3, 5 — plus the 7×7 stem) and the stride-1 "same"
// pad edge cases (images as small as the kernel itself, channel counts
// straddling the ×4 reduction-unroll boundary).
func TestRegistryRungsMatchNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 30; iter++ {
		k := []int{1, 3, 5, 7}[rng.Intn(4)]
		s := ConvShape{
			InC:  1 + rng.Intn(9),
			OutC: 1 + rng.Intn(9),
			H:    k + rng.Intn(14),
			W:    k + rng.Intn(14),
			K:    k,
		}
		x := randSlice(rng, s.InLen())
		cw := randSlice(rng, s.WeightLen())
		dw := randSlice(rng, s.InC*s.OutC*s.K*s.K)

		convRef := make([]float32, s.OutLen())
		Baseline.Conv(x, cw, convRef, s, 1)
		deconvRef := make([]float32, s.OutLen())
		Baseline.Deconv(x, dw, deconvRef, s, 1)

		for _, r := range oracleRungs() {
			for _, workers := range []int{1, 4} {
				out := make([]float32, s.OutLen())
				r.conv(x, cw, out, s, workers)
				if u := maxUlps(out, convRef, cancelFloor(convRef)); u > oracleBudgetULPs {
					t.Fatalf("shape %+v: conv rung %q (workers=%d) is %d ULPs from naive (budget %d)",
						s, r.name, workers, u, oracleBudgetULPs)
				}
				out = make([]float32, s.OutLen())
				r.deconv(x, dw, out, s, workers)
				if u := maxUlps(out, deconvRef, cancelFloor(deconvRef)); u > oracleBudgetULPs {
					t.Fatalf("shape %+v: deconv rung %q (workers=%d) is %d ULPs from naive (budget %d)",
						s, r.name, workers, u, oracleBudgetULPs)
				}
			}
		}
	}
}

// benchShape names one representative DDnet layer shape.
type benchShape struct {
	Name   string
	Shape  ConvShape
	Deconv bool
}

// table2Shapes returns representative DDnet layer shapes from the
// paper's Table 2 at the given trunk resolution (512 for the paper;
// tests shrink it). One shape per layer family: the 7×7 stem, the
// dense-block 1×1 bottleneck and 5×5 growth convolutions, the 1×1
// transition, and the decoder's 5×5 and 1×1 deconvolutions.
func table2Shapes(size int) []benchShape {
	a := paperArch()
	f, g := a.BaseChannels, a.Growth
	blockOut := f + a.DenseLayers*g
	h := size / 2 // first encoder / last decoder stage resolution
	return []benchShape{
		{"stem 7x7", ConvShape{InC: 1, H: size, W: size, OutC: f, K: 7}, false},
		{"bottleneck 1x1", ConvShape{InC: blockOut - g, H: h, W: h, OutC: 4 * g, K: 1}, false},
		{"growth 5x5", ConvShape{InC: 4 * g, H: h, W: h, OutC: g, K: a.Kernel}, false},
		{"transition 1x1", ConvShape{InC: blockOut, H: h, W: h, OutC: f, K: 1}, false},
		{"deconv 5x5", ConvShape{InC: f + blockOut, H: h, W: h, OutC: 2 * f, K: a.Kernel}, true},
		{"deconv 1x1", ConvShape{InC: 2 * f, H: h, W: h, OutC: f, K: 1}, true},
	}
}

// TestRungsMatchNaiveOnTable2Shapes runs the oracle over the real
// DDnet layer shapes. These are big enough that the GEMM splits column
// tiles mid-row (the small randomized shapes above never do), which is
// exactly the regime where a staging-edge-case bug hides.
func TestRungsMatchNaiveOnTable2Shapes(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, bs := range table2Shapes(64) {
		s := bs.Shape
		x := randSlice(rng, s.InLen())
		var w []float32
		if bs.Deconv {
			w = randSlice(rng, s.InC*s.OutC*s.K*s.K)
		} else {
			w = randSlice(rng, s.WeightLen())
		}
		ref := make([]float32, s.OutLen())
		if bs.Deconv {
			Baseline.Deconv(x, w, ref, s, 1)
		} else {
			Baseline.Conv(x, w, ref, s, 1)
		}
		for _, r := range oracleRungs() {
			out := make([]float32, s.OutLen())
			if bs.Deconv {
				r.deconv(x, w, out, s, 4)
			} else {
				r.conv(x, w, out, s, 4)
			}
			if u := maxUlps(out, ref, cancelFloor(ref)); u > oracleBudgetULPs {
				t.Fatalf("%s: rung %q is %d ULPs from naive (budget %d)",
					bs.Name, r.name, u, oracleBudgetULPs)
			}
		}
	}
}

// TestRungsDeterministicAcrossWorkers pins a stronger property than the
// oracle budget: within one rung, the worker count must not change a
// single bit (tiles and channel rows partition the output, and each
// output element's accumulation order is fixed). This is what lets
// serve micro-batch on warm weights without result drift.
func TestRungsDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := ConvShape{InC: 5, H: 23, W: 29, OutC: 7, K: 5}
	x := randSlice(rng, s.InLen())
	cw := randSlice(rng, s.WeightLen())
	dw := randSlice(rng, s.InC*s.OutC*s.K*s.K)
	for _, r := range oracleRungs() {
		c1 := make([]float32, s.OutLen())
		r.conv(x, cw, c1, s, 1)
		c8 := make([]float32, s.OutLen())
		r.conv(x, cw, c8, s, 8)
		if d := maxDiff(c1, c8); d != 0 {
			t.Fatalf("rung %q conv: workers=8 differs from serial by %v", r.name, d)
		}
		d1 := make([]float32, s.OutLen())
		r.deconv(x, dw, d1, s, 1)
		d8 := make([]float32, s.OutLen())
		r.deconv(x, dw, d8, s, 8)
		if d := maxDiff(d1, d8); d != 0 {
			t.Fatalf("rung %q deconv: workers=8 differs from serial by %v", r.name, d)
		}
	}
}

// TestGatherDeconvTilingRace exercises the gather and GEMM
// deconvolution tiling under the race detector (make race covers
// internal/kernels): concurrent inferences on shared inputs/weights
// with disjoint outputs, each internally parallel, must not race — the
// property that makes the REF refactoring parallelize over output
// tiles with no scatter conflicts.
func TestGatherDeconvTilingRace(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	s := ConvShape{InC: 6, H: 37, W: 41, OutC: 5, K: 5}
	x := randSlice(rng, s.InLen())
	w := randSlice(rng, s.InC*s.OutC*s.K*s.K)
	want := make([]float32, s.OutLen())
	REF.Deconv(x, w, want, s, 1)

	var wg sync.WaitGroup
	for _, r := range oracleRungs()[1:] { // all but the scatter Baseline
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				out := make([]float32, s.OutLen())
				r.deconv(x, w, out, s, 4)
				if u := maxUlps(out, want, cancelFloor(want)); u > oracleBudgetULPs {
					t.Errorf("concurrent %q deconv drifted %d ULPs from gather reference", r.name, u)
				}
			}()
		}
	}
	wg.Wait()
}

func TestTable2Shapes(t *testing.T) {
	shapes := table2Shapes(512)
	if len(shapes) != 6 {
		t.Fatalf("want 6 representative shapes, got %d", len(shapes))
	}
	var grow, deconv bool
	for _, bs := range shapes {
		if bs.Shape.K%2 != 1 || bs.Shape.InLen() <= 0 || bs.Shape.OutLen() <= 0 {
			t.Fatalf("degenerate shape %+v", bs)
		}
		if bs.Name == "growth 5x5" && bs.Shape.K == 5 && bs.Shape.InC == 64 && bs.Shape.OutC == 16 {
			grow = true
		}
		deconv = deconv || bs.Deconv
	}
	if !grow || !deconv {
		t.Fatalf("table2Shapes missing the 5x5 growth conv or any deconv: %+v", shapes)
	}
}
