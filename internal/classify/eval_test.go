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
//	path    graph (Predict) | pooled eval (PredictPooled)
//	arena   cold | warm (second forward on the same arena) | release-poisoning | the global arena
//	workers GOMAXPROCS 1 | 4 (the default worker count, hence every kernel's chunking)
//
// must return the probability bits of the graph forward on one worker,
// with every BatchNorm given distinct statistics so a backend reading
// the wrong unit shows.
func TestPredictPooledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := New(rng, SmallConfig())
	distinctBN(c)
	v := evalTestVolume(rng, 16, 16, 16)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer tensor.SetMemDebug(tensor.SetMemDebug(false))
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
				t.Errorf("%s, GOMAXPROCS=%d: %v != %v", a.name, procs, got, want)
			}
		}
	}
}

// TestAllocsWarmPredict pins zero steady-state heap allocations for a
// warm pooled classification.
func TestAllocsWarmPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := New(rng, SmallConfig())
	v := evalTestVolume(rng, 16, 16, 16)
	mem := memplan.New()
	warm := func() { c.PredictPooled(mem, v) }
	warm()
	if n := testing.AllocsPerRun(10, warm); n != 0 {
		t.Fatalf("warm PredictPooled allocates %v allocs/op, want 0", n)
	}
}
