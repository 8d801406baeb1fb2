package kernels_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	. "computecovid19/internal/kernels"
)

// refEpilogue applies the epilogue the unfused way: a full bias pass
// then a full activation pass over the finished convolution output.
func refEpilogue(out []float32, s ConvShape, ep Epilogue) {
	cols := s.H * s.W
	if ep.Bias != nil {
		for co := 0; co < s.OutC; co++ {
			b := ep.Bias[co]
			for i := co * cols; i < (co+1)*cols; i++ {
				out[i] += b
			}
		}
	}
	if ep.Act {
		for i, v := range out {
			if v < 0 {
				out[i] = ep.Slope * v
			}
		}
	}
}

// TestConvFusedMatchesSeparatePasses is the epilogue's accuracy
// contract: ConvFused with a bias+LeakyReLU epilogue agrees with the
// same convolution followed by separate bias and activation passes to
// within the ladder's documented ULP budget. The only reassociation is
// the bias seeding the accumulator instead of being added to the
// finished sum, which perturbs each element by at most a few ULPs.
func TestConvFusedMatchesSeparatePasses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		s := ConvShape{
			InC:  1 + rng.Intn(6),
			H:    4 + rng.Intn(28),
			W:    4 + rng.Intn(28),
			OutC: 1 + rng.Intn(6),
			K:    1 + 2*rng.Intn(4),
		}
		x := randSlice(rng, s.InLen())
		w := randSlice(rng, s.WeightLen())
		ep := Epilogue{Bias: randSlice(rng, s.OutC), Act: true, Slope: 0.01}

		want := make([]float32, s.OutLen())
		ConvFused(x, w, want, s, 1, Epilogue{})
		refEpilogue(want, s, ep)

		got := make([]float32, s.OutLen())
		ConvFused(x, w, got, s, 1, ep)
		if u := maxUlps(got, want, cancelFloor(want)); u > oracleBudgetULPs {
			t.Fatalf("trial %d %+v: fused epilogue drifted %d ULPs from separate passes",
				trial, s, u)
		}
	}
}

// TestConvFusedPreFlippedBitIdenticalToDeconv pins the warm-time weight
// packing: FlipDeconvWeights once + ConvFused must produce exactly what
// DeconvGEMM produces with its per-call flip — the satellite fix that
// hoists the flip out of the hot path must not change a single bit.
func TestConvFusedPreFlippedBitIdenticalToDeconv(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := ConvShape{InC: 5, H: 17, W: 29, OutC: 3, K: 5}
	x := randSlice(rng, s.InLen())
	w := randSlice(rng, s.InC*s.OutC*s.K*s.K)

	want := make([]float32, s.OutLen())
	DeconvGEMM(x, w, want, s, 1)

	wf := make([]float32, len(w))
	FlipDeconvWeights(w, wf, s)
	got := make([]float32, s.OutLen())
	ConvFused(x, wf, got, s, 1, Epilogue{})
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("element %d: pre-flipped %x != per-call flip %x",
				i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestConvFusedDeterministicAcrossWorkers extends the ladder's
// bit-determinism property to the epilogue path: the worker count
// changes only which tile runs where, never a single output bit.
func TestConvFusedDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := ConvShape{InC: 4, H: 31, W: 37, OutC: 5, K: 3}
	x := randSlice(rng, s.InLen())
	w := randSlice(rng, s.WeightLen())
	ep := Epilogue{Bias: randSlice(rng, s.OutC), Act: true, Slope: 0.01}

	want := make([]float32, s.OutLen())
	ConvFused(x, w, want, s, 1, ep)
	for _, workers := range []int{2, 4, 8} {
		got := make([]float32, s.OutLen())
		ConvFused(x, w, got, s, workers, ep)
		for i := range want {
			if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
				t.Fatalf("workers=%d element %d: %x != %x (worker count changed bits)",
					workers, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestConvFusedBadOperandPanicsOnCaller pins where a malformed call
// fails: a short operand, an even kernel or a non-positive dimension
// panics with ConvFused's own message on the calling goroutine, where
// it can be recovered, and not on a pool worker (which would take the
// process down) or inside the assembly (which would read or write past
// the operand without a panic at all). The shape splits into tiles on
// 2 workers, so without the check the work would reach the pool.
func TestConvFusedBadOperandPanicsOnCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{1, 3} {
		s := ConvShape{InC: 3, H: 32, W: 40, OutC: 5, K: k}
		x := randSlice(rng, s.InLen())
		w := randSlice(rng, s.WeightLen())
		out := make([]float32, s.OutLen())
		bias := Epilogue{Bias: randSlice(rng, s.OutC), Act: true, Slope: 0.01}
		for _, c := range []struct {
			name      string
			x, w, out []float32
			s         ConvShape
			ep        Epilogue
		}{
			{"short x", x[:len(x)-1], w, out, s, bias},
			{"short w", x, w[:len(w)-1], out, s, bias},
			{"short out", x, w, out[:len(out)-1], s, bias},
			{"short bias", x, w, out, s, Epilogue{Bias: bias.Bias[:s.OutC-1]}},
			{"even K", x, w, out, ConvShape{InC: 3, H: 32, W: 40, OutC: 5, K: k + 1}, bias},
			{"zero H", x, w, out, ConvShape{InC: 3, W: 40, OutC: 5, K: k}, bias},
			{"negative D", x, w, out, ConvShape{InC: 3, D: -1, H: 32, W: 40, OutC: 5, K: k}, bias},
		} {
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				ConvFused(c.x, c.w, c.out, c.s, 2, c.ep)
				return ""
			}()
			if !strings.HasPrefix(msg, "kernels: ConvFused") {
				t.Errorf("K=%d %s: recovered %q, want ConvFused's operand panic", k, c.name, msg)
			}
		}
	}
}

// TestBNActInferMatchesTwoPass checks the single-pass folded
// BatchNorm+LeakyReLU against the two-pass BatchNormInfer + LeakyReLU
// composition, with the scale/shift folded in float64 the way plan
// compilation does.
func TestBNActInferMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const c, hw = 6, 37 * 41
	x := randSlice(rng, c*hw)
	gamma := randSlice(rng, c)
	beta := randSlice(rng, c)
	mean := randSlice(rng, c)
	variance := make([]float32, c)
	for i := range variance {
		variance[i] = 1 + rng.Float32()
	}
	const eps = 1e-5

	want := append([]float32(nil), x...)
	BatchNormInfer(want, want, c, hw, gamma, beta, mean, variance, eps, 1)
	LeakyReLU(want, 0.01, 1)

	scale := make([]float32, c)
	shift := make([]float32, c)
	for ci := 0; ci < c; ci++ {
		is := 1 / math.Sqrt(float64(variance[ci])+eps)
		scale[ci] = float32(float64(gamma[ci]) * is)
		shift[ci] = float32(float64(beta[ci]) - float64(mean[ci])*float64(gamma[ci])*is)
	}
	got := make([]float32, len(x))
	BNActInfer(x, got, c, hw, scale, shift, 0.01, 1)
	if u := maxUlps(got, want, cancelFloor(want)); u > oracleBudgetULPs {
		t.Fatalf("single-pass BN+act drifted %d ULPs from the two-pass composition", u)
	}
}

// TestConvFusedTilingRace runs concurrent fused convolutions — each
// internally parallel through the persistent worker pool, each drawing
// im2col panels from the shared memory pool — under the race detector
// (make race covers internal/kernels). Disjoint outputs from shared
// inputs/weights must not race however chunks land on pool workers.
func TestConvFusedTilingRace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := ConvShape{InC: 6, H: 37, W: 41, OutC: 5, K: 5}
	x := randSlice(rng, s.InLen())
	w := randSlice(rng, s.WeightLen())
	ep := Epilogue{Bias: randSlice(rng, s.OutC), Act: true, Slope: 0.01}
	want := make([]float32, s.OutLen())
	ConvFused(x, w, want, s, 1, ep)

	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float32, s.OutLen())
			ConvFused(x, w, out, s, 4, ep)
			for j := range want {
				if math.Float32bits(out[j]) != math.Float32bits(want[j]) {
					t.Errorf("concurrent fused conv diverged at element %d", j)
					return
				}
			}
		}()
	}
	wg.Wait()
}
