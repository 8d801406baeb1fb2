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

// TestPredictPooledBitIdentical is the differential oracle over the
// walk's two forward backends. Every combination of
//
//	volume  16³ | 8×64×64 (the serving shape) | 3×10×14 (odd, pooled down to one plane)
//	path    graph (Predict) | pooled eval (PredictPooled)
//	arena   cold | warm (second forward on the same arena) | release-poisoning | the global arena
//	workers GOMAXPROCS 1 | 4 (the default worker count, hence every kernel's tiling)
//
// must return the probability bits of the graph forward on one worker,
// with every BatchNorm given distinct statistics so a backend reading
// the wrong unit shows.
func TestPredictPooledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := New(rng, SmallConfig())
	distinctBN(c)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer tensor.SetMemDebug(tensor.SetMemDebug(false))

	for _, dims := range [][3]int{{16, 16, 16}, {8, 64, 64}, {3, 10, 14}} {
		v := evalTestVolume(rng, dims[0], dims[1], dims[2])
		runtime.GOMAXPROCS(1)
		want := c.Predict(v)

		warm := memplan.New()
		c.PredictPooled(warm, v)
		arenas := []struct {
			name     string
			memdebug bool
			arena    func() *memplan.Arena // nil: the graph path, which uses none
		}{
			{"graph", false, nil},
			{"cold", false, memplan.New},
			{"warm", false, func() *memplan.Arena { return warm }},
			{"memdebug", true, memplan.New},
			{"global", false, memplan.Global},
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, a := range arenas {
				tensor.SetMemDebug(a.memdebug)
				var got float64
				if a.arena == nil {
					got = c.Predict(v)
				} else {
					got = c.PredictPooled(a.arena(), v)
				}
				if got != want {
					t.Errorf("%v volume, %s, GOMAXPROCS=%d: %v != %v", dims, a.name, procs, got, want)
				}
			}
		}
		tensor.SetMemDebug(false)
	}
}

// TestAllocsWarmPredict pins zero steady-state heap allocations for a
// warm classification on the pooled backend and on the compiled plan,
// on one proc and on two — where every convolution's column tiles and
// the plan's BatchNorm planes go to the worker pool.
func TestAllocsWarmPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New(rng, SmallConfig())
	v := evalTestVolume(rng, 16, 16, 16)
	mem := memplan.New()
	warm := func() { c.PredictPooled(mem, v) }
	for _, backend := range []string{"pooled", "plan"} {
		if backend == "plan" {
			c.Warm()
		}
		for _, procs := range []int{1, 2} {
			if procs > 1 && memplan.RaceEnabled {
				continue // every tile dispatch recycles its job through a sync.Pool
			}
			if n := memplan.AllocsPerRun(procs, 10, warm); n != 0 {
				t.Fatalf("warm PredictPooled (%s) on %d procs allocates %v allocs/op, want 0", backend, procs, n)
			}
		}
	}
}
