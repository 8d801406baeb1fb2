package ddnet

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/nn"
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

// requireNearGraph fails unless m's eval forward of imgs is within
// fusedBudget of its graph forward: a plan folded from stale weights
// misses by far more.
func requireNearGraph(t *testing.T, m *DDnet, imgs []*tensor.Tensor, label string) {
	t.Helper()
	want := graphEnhance(m, imgs)
	if d := maxAbsDiff(t, want, enhanceInto(m, memplan.New(), imgs)); d > fusedBudget {
		t.Fatalf("%s: eval forward %g from the graph forward of the current weights (budget %g)", label, d, fusedBudget)
	}
}

// shiftStatistics moves every BatchNorm's running mean, a change no
// stale plan can hide.
func shiftStatistics(m *DDnet) {
	for i, s := range m.StateTensors() {
		if i%2 == 0 {
			for j := range s.Data {
				s.Data[j] += 0.3
			}
		}
	}
}

// TestSetTrainingInvalidatesPlan pins the invalidation contract: going
// back to training drops the plan (its folded weights bake in BN
// statistics that are about to change), so after a weight changes in
// training mode the next eval forward — lazily compiled, or after an
// explicit Warm — folds the new weights.
func TestSetTrainingInvalidatesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	m := New(rng, TinyConfig())
	imgs := evalTestImages(rng, 1, 32, 32)
	for _, warm := range []bool{false, true} {
		m.Warm()
		requireNearGraph(t, m, imgs, "before training")
		m.SetTraining(true)
		shiftStatistics(m)
		if warm {
			m.Warm()
		}
		requireNearGraph(t, m, imgs, fmt.Sprintf("after a training-mode weight change (Warm=%v)", warm))
	}
}

// TestLoadModuleInvalidatesPlan pins that nn.LoadModule drops the plan
// of the network it writes into: after an eval forward — with or
// without Warm before it — loading other weights makes the next eval
// forward fold those, not the old ones.
func TestLoadModuleInvalidatesPlan(t *testing.T) {
	src := New(rand.New(rand.NewSource(27)), TinyConfig())
	distinctBN(src)
	var file bytes.Buffer
	if err := nn.SaveModule(&file, src); err != nil {
		t.Fatal(err)
	}
	imgs := evalTestImages(rand.New(rand.NewSource(26)), 1, 32, 32)
	for _, warm := range []bool{false, true} {
		m := New(rand.New(rand.NewSource(28)), TinyConfig())
		if warm {
			m.Warm()
		}
		requireNearGraph(t, m, imgs, "before the load")
		if err := nn.LoadModule(bytes.NewReader(file.Bytes()), m); err != nil {
			t.Fatal(err)
		}
		requireNearGraph(t, m, imgs, fmt.Sprintf("after the load (Warm=%v)", warm))
		requireSameBits(t, graphEnhance(src, imgs), graphEnhance(m, imgs), "loaded weights")
	}
}

// TestPlanCompiledByConcurrentFirstForwards starts several forwards at
// once on a network in eval mode that has no plan yet: they race to
// compile it (one folds under the mutex, the rest load its result), and
// every output must carry the bits of a forward on a network warmed
// beforehand.
func TestPlanCompiledByConcurrentFirstForwards(t *testing.T) {
	imgs := evalTestImages(rand.New(rand.NewSource(32)), 2, 32, 32)
	warm := New(rand.New(rand.NewSource(33)), TinyConfig())
	warm.Warm()
	want := enhanceInto(warm, memplan.New(), imgs)
	m := New(rand.New(rand.NewSource(33)), TinyConfig())
	m.SetTraining(false)
	got := make([][]*tensor.Tensor, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = enhanceInto(m, memplan.New(), imgs)
		}()
	}
	wg.Wait()
	for g := range got {
		requireSameBits(t, want, got[g], fmt.Sprintf("concurrent first forward %d", g))
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
