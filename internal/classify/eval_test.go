package classify

import (
	"math/rand"
	"runtime"
	"testing"

	"computecovid19/internal/memplan"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

func evalTestVolume(rng *rand.Rand, d, h, w int) *volume.Volume {
	v := volume.New(d, h, w)
	for i := range v.Data {
		v.Data[i] = rng.Float32()
	}
	return v
}

// TestPredictPooledBitIdentical holds the plan's result to one set of
// bits per weights and input. For weight seeds 1, 2, 3 and each
// planVolumes input, every combination of
//
//	compile  lazy (a classifier that never called Warm) | Warm
//	arena    cold | warm (second forward on the same arena) | release-poisoning | the global arena
//	workers  GOMAXPROCS 1 | 2 | 4 (the default worker count, hence every kernel's tiling)
//
// must return the bits of the first result — the lazy plan on a cold
// arena and one worker, which TestPlanMatchesPooled holds to Predict —
// so arena state, worker count and when the plan was compiled never
// change a bit.
func TestPredictPooledBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer tensor.SetMemDebug(tensor.SetMemDebug(false))
	for _, seed := range []int64{1, 2, 3} {
		cs := planClassifiers(seed)
		for _, v := range planVolumes(seed) {
			var first *float64
			warmArena := memplan.New()
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				for _, c := range cs {
					for _, a := range []struct {
						name     string
						memdebug bool
						arena    func() *memplan.Arena
					}{
						{"cold", false, memplan.New},
						{"warm", false, func() *memplan.Arena { return warmArena }},
						{"memdebug", true, memplan.New},
						{"global", false, memplan.Global},
					} {
						tensor.SetMemDebug(a.memdebug)
						got := c.c.PredictPooled(a.arena(), v)
						tensor.SetMemDebug(false)
						if first == nil {
							first = &got
						} else if got != *first {
							t.Errorf("seed %d, %d×%d×%d volume, %s plan, %s arena, GOMAXPROCS=%d: %v, first eval result %v",
								seed, v.D, v.H, v.W, c.name, a.name, procs, got, *first)
						}
					}
				}
			}
		}
	}
}

// TestAllocsWarmPredict pins zero steady-state heap allocations for a
// warm classification on the compiled plan — compiled by the first
// PredictPooled, and again after SetTraining(true) dropped it, by Warm
// — on one proc and on two, where every convolution's column tiles and
// the plan's BatchNorm planes go to the worker pool.
func TestAllocsWarmPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New(rng, SmallConfig())
	v := evalTestVolume(rng, 16, 16, 16)
	mem := memplan.New()
	warm := func() { c.PredictPooled(mem, v) }
	for _, compile := range []string{"lazy", "Warm"} {
		if compile == "Warm" {
			c.SetTraining(true)
			c.Warm()
		}
		for _, procs := range []int{1, 2} {
			if procs > 1 && memplan.RaceEnabled {
				continue // every tile dispatch recycles its job through a sync.Pool
			}
			if n := memplan.AllocsPerRun(procs, 10, warm); n != 0 {
				t.Fatalf("warm PredictPooled (plan compiled %s) on %d procs allocates %v allocs/op, want 0", compile, procs, n)
			}
		}
	}
}
