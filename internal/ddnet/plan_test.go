package ddnet

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// fusedBudget is the network-level accuracy contract of the compiled
// plan: BN folding rewrites (x−μ)·γ/√(σ²+ε)+β into scale·x+shift and
// the epilogue seeds the GEMM accumulator with the bias, each a legal
// reassociation worth a few float32 ULPs per layer. Accumulated through
// every layer of the tiny network and clamped to [0, 1], the drift
// stays far below 1e-3 absolute — while a wrong fold (dropped μ, bias
// applied twice, unflipped deconv panel) perturbs outputs by O(0.1).
const fusedBudget = 1e-3

func maxAbsDiff(t *testing.T, want, got []*tensor.Tensor) float64 {
	t.Helper()
	var worst float64
	for i := range want {
		for j := range want[i].Data {
			d := math.Abs(float64(want[i].Data[j]) - float64(got[i].Data[j]))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

func enhanceInto(m *DDnet, mem *memplan.Arena, imgs []*tensor.Tensor) []*tensor.Tensor {
	outs := make([]*tensor.Tensor, len(imgs))
	for i := range outs {
		outs[i] = tensor.New(imgs[i].Shape[0], imgs[i].Shape[1])
	}
	m.EnhanceBatchInto(context.Background(), mem, imgs, outs)
	return outs
}

// TestSetTrainingInvalidatesPlan pins the invalidation contract: going
// back to training drops the plan (its folded weights bake in BN
// statistics that are about to change), and the per-call
// SetTraining(false) on inference entry points does not resurrect or
// recompile it.
func TestSetTrainingInvalidatesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := New(rng, TinyConfig())
	m.Warm()
	m.SetTraining(true)
	if m.plan.Load() != nil {
		t.Fatal("SetTraining(true) must drop the compiled plan")
	}
	m.SetTraining(false)
	if m.plan.Load() != nil {
		t.Fatal("SetTraining(false) must not compile a plan (that is Warm's job)")
	}
	imgs := evalTestImages(rng, 1, 32, 32)
	want := graphEnhance(m, imgs)
	got := enhanceInto(m, memplan.New(), imgs)
	requireSameBits(t, want, got, "invalidated plan")
	m.Warm()
	if m.plan.Load() == nil {
		t.Fatal("re-Warm after invalidation must recompile")
	}
}

// TestAllocsWarmEnhanceFused pins the fused plan's performance
// invariant: the packed weights live in plan-compile-time buffers and
// every kernel draws scratch from the pools, so a warm fused
// EnhanceBatchInto performs zero steady-state heap allocations. One
// image takes the kernel split on both proc counts; three on two procs
// take the slice split, whose group dispatch must not allocate either.
func TestAllocsWarmEnhanceFused(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := New(rng, TinyConfig())
	m.Warm()
	mem := memplan.New()
	ctx := context.Background()
	for _, n := range []int{1, 3} {
		imgs := evalTestImages(rng, n, 32, 32)
		outs := make([]*tensor.Tensor, n)
		for i := range outs {
			outs[i] = tensor.New(32, 32)
		}
		warm := func() { m.EnhanceBatchInto(ctx, mem, imgs, outs) }
		warm()
		if m.plan.Load() == nil {
			t.Fatal("fused path not active")
		}
		for _, procs := range []int{1, 2} {
			if procs > 1 && memplan.RaceEnabled {
				continue // every dispatch recycles jobs through sync.Pools
			}
			if a := memplan.AllocsPerRun(procs, 50, warm); a != 0 {
				t.Fatalf("warm fused EnhanceBatchInto of %d images on %d procs allocates %v allocs/op, want 0", n, procs, a)
			}
		}
	}
}
