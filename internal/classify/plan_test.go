package classify

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/volume"
)

// planBudget is the compiled plan's accuracy contract, fixed before it
// was measured: |Δprobability| ≤ 1e-6 against the graph forward.
// Folding BatchNorm into the weights rewrites (x−μ)·γ/√(σ²+ε)+β as
// scale·x+shift and the epilogue seeds each accumulator with the bias,
// reassociations worth a few float32 ULPs per layer; a wrong fold
// (a dropped μ, a unit's statistics on another layer) moves the
// probability by orders of magnitude more.
const planBudget = 1e-6

// compiled is a classifier named by how its plan is compiled.
type compiled struct {
	name string
	c    *Classifier
}

// planClassifiers returns two classifiers with seed's weights, each
// with distinct BatchNorm statistics so a fold reading the wrong unit
// shows: one that never called Warm (its first PredictPooled compiles
// the plan) and one compiled by Warm.
func planClassifiers(seed int64) []compiled {
	lazy := New(rand.New(rand.NewSource(seed)), SmallConfig())
	warm := New(rand.New(rand.NewSource(seed)), SmallConfig())
	distinctBN(lazy)
	distinctBN(warm)
	warm.Warm()
	return []compiled{{"lazy", lazy}, {"Warm", warm}}
}

// planVolumes are the oracle's inputs for weight seed: 16³, 8×64×64
// (the serving shape) and 3×10×14 (odd, pooled down to one plane).
func planVolumes(seed int64) []*volume.Volume {
	rng := rand.New(rand.NewSource(seed + 10))
	var vs []*volume.Volume
	for _, dims := range [][3]int{{16, 16, 16}, {8, 64, 64}, {3, 10, 14}} {
		vs = append(vs, evalTestVolume(rng, dims[0], dims[1], dims[2]))
	}
	return vs
}

// TestPlanMatchesPooled is the differential oracle of the compiled plan
// that PredictPooled runs against Predict, the graph forward on one
// worker: for weight seeds 1, 2, 3, each planVolumes input and a plan
// compiled lazily or by Warm, the probability must be within
// planBudget of Predict's. TestPredictPooledBitIdentical extends the
// budget to every arena and worker count by holding them to these
// bits.
func TestPlanMatchesPooled(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var worst float64
	for _, seed := range []int64{1, 2, 3} {
		cs := planClassifiers(seed)
		for _, v := range planVolumes(seed) {
			want := cs[0].c.Predict(v)
			for _, c := range cs {
				d := math.Abs(c.c.PredictPooled(memplan.New(), v) - want)
				worst = max(worst, d)
				if d > planBudget {
					t.Errorf("seed %d, %d×%d×%d volume, %s plan: |Δprobability| %.3g > %g",
						seed, v.D, v.H, v.W, c.name, d, planBudget)
				}
			}
		}
	}
	t.Logf("largest |Δprobability| plan vs graph: %.3g", worst)
}

// TestSetTrainingInvalidatesClassifierPlan pins the invalidation
// contract: going back to training drops the plan (its folded weights
// bake in BatchNorm statistics that are about to change), so after a
// weight changes in training mode the next PredictPooled — lazily
// compiled, or after an explicit Warm — folds the new weights.
func TestSetTrainingInvalidatesClassifierPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c := New(rng, SmallConfig())
	distinctBN(c)
	v := evalTestVolume(rng, 8, 16, 16)
	for _, warm := range []bool{false, true} {
		c.Warm()
		c.PredictPooled(memplan.New(), v)
		c.SetTraining(true)
		for i, s := range c.StateTensors() {
			if i%2 == 0 {
				for j := range s.Data {
					s.Data[j] += 0.3 // every running mean: no stale plan can hide it
				}
			}
		}
		if warm {
			c.Warm()
		}
		got, want := c.PredictPooled(memplan.New(), v), c.Predict(v)
		if d := math.Abs(got - want); d > planBudget {
			t.Fatalf("Warm=%v: after a training-mode weight change PredictPooled %v, graph %v (|Δ| %.3g > %g)",
				warm, got, want, d, planBudget)
		}
	}
}
