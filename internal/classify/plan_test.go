package classify

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
)

// planBudget is the compiled plan's accuracy contract, fixed before it
// was measured: |Δprobability| ≤ 1e-6 against the pooled backend.
// Folding BatchNorm into the weights rewrites (x−μ)·γ/√(σ²+ε)+β as
// scale·x+shift and the epilogue seeds each accumulator with the bias,
// reassociations worth a few float32 ULPs per layer; a wrong fold
// (a dropped μ, a unit's statistics on another layer) moves the
// probability by orders of magnitude more.
const planBudget = 1e-6

// TestPlanMatchesPooled is the differential oracle of the plan backend
// against the pooled one, over every combination of
//
//	weights  seeds 1, 2, 3, each with distinct BatchNorm statistics
//	volume   16³ | 8×64×64 (the serving shape) | 3×10×14 (odd, pooled down to one plane)
//	arena    cold | warm (second forward on the same arena) | release-poisoning
//	workers  GOMAXPROCS 1 | 2 | 4
func TestPlanMatchesPooled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer tensor.SetMemDebug(tensor.SetMemDebug(false))
	var worst float64
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		c := New(rng, SmallConfig())
		distinctBN(c)
		for _, dims := range [][3]int{{16, 16, 16}, {8, 64, 64}, {3, 10, 14}} {
			v := evalTestVolume(rng, dims[0], dims[1], dims[2])
			runtime.GOMAXPROCS(1)
			c.SetTraining(true) // drops the plan of the previous volume
			want := c.PredictPooled(memplan.New(), v)
			c.Warm()
			if c.plan.Load() == nil {
				t.Fatal("Warm compiled no plan")
			}
			warm := memplan.New()
			c.PredictPooled(warm, v)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, a := range []struct {
					name     string
					memdebug bool
					arena    *memplan.Arena
				}{
					{"cold", false, memplan.New()},
					{"warm", false, warm},
					{"memdebug", true, memplan.New()},
				} {
					tensor.SetMemDebug(a.memdebug)
					d := math.Abs(c.PredictPooled(a.arena, v) - want)
					worst = max(worst, d)
					if d > planBudget {
						t.Errorf("seed %d, %v volume, %s, GOMAXPROCS=%d: |Δprobability| %.3g > %g",
							seed, dims, a.name, procs, d, planBudget)
					}
				}
				tensor.SetMemDebug(false)
			}
		}
	}
	t.Logf("largest |Δprobability| plan vs pooled: %.3g", worst)
}

// TestSetTrainingInvalidatesClassifierPlan pins the invalidation
// contract: going back to training drops the plan (its folded weights
// bake in BatchNorm statistics that are about to change), the per-call
// SetTraining(false) on the inference entry points does not resurrect
// or recompile it, and the unplanned forward is the pooled backend's,
// bit for bit.
func TestSetTrainingInvalidatesClassifierPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := New(rng, SmallConfig())
	distinctBN(c)
	v := evalTestVolume(rng, 8, 16, 16)
	c.Warm()
	c.SetTraining(true)
	if c.plan.Load() != nil {
		t.Fatal("SetTraining(true) must drop the compiled plan")
	}
	c.SetTraining(false)
	if c.plan.Load() != nil {
		t.Fatal("SetTraining(false) must not compile a plan (that is Warm's job)")
	}
	want := c.Predict(v)
	if got := c.PredictPooled(memplan.New(), v); got != want {
		t.Fatalf("invalidated plan: PredictPooled %v, graph %v", got, want)
	}
	c.Warm()
	if c.plan.Load() == nil {
		t.Fatal("re-Warm after invalidation must recompile")
	}
}
