package memplan

import (
	"math"
	"runtime"
	"sync"

	"computecovid19/internal/obs"
)

// Runtime memory gauges, refreshed by SampleRuntime — serve's /metrics
// handler calls it per scrape so heap pressure and GC pauses under load
// land next to the serve_* and pool-traffic series.
var (
	heapInuseGauge = obs.GetGauge("mem_heap_inuse_bytes")
	heapAllocGauge = obs.GetGauge("mem_heap_alloc_bytes")
	gcCyclesGauge  = obs.GetGauge("mem_gc_cycles_total")
	// 1 µs .. ~3 s stop-the-world pause buckets.
	gcPauseHist = obs.GetHistogram("mem_gc_pause_seconds", obs.ExpBuckets(1e-6, math.Sqrt(10), 14))

	sampleMu  sync.Mutex
	lastNumGC uint32
)

// AllocsPerRun is testing.AllocsPerRun on procs procs. That one pins
// GOMAXPROCS to 1, so it never sees a parallel branch; this sets
// GOMAXPROCS to procs (restoring it after) and counts heap allocations
// process-wide through runtime.ReadMemStats, the worker pool's
// goroutines included. f runs runs times to warm up, then in windows of
// runs calls; the result is the integer average of the best of a few
// windows. Parallel work needs the best window: the pools behind it —
// arena buffers, dispatch jobs, the scheduler's own wait records — grow
// to cover the worst overlap of concurrent schedules met so far, so one
// window can catch a late growth step. An allocation made on every call
// still shows in every window. Under RaceEnabled the count includes
// sync.Pool's deliberate drops.
func AllocsPerRun(procs, runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i := 0; i < runs; i++ {
		f()
	}
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for w := 0; w < 4 && best > 0; w++ {
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		best = min(best, (after.Mallocs-before.Mallocs)/uint64(runs))
	}
	return float64(best)
}

// SampleRuntime reads runtime.MemStats into the mem_* gauges and feeds
// every GC pause since the previous sample into the pause histogram
// (clamped to the runtime's 256-entry pause ring). Safe for concurrent
// use; successive calls never double-count a pause.
func SampleRuntime() {
	sampleMu.Lock()
	defer sampleMu.Unlock()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapInuseGauge.Set(float64(ms.HeapInuse))
	heapAllocGauge.Set(float64(ms.HeapAlloc))
	gcCyclesGauge.Set(float64(ms.NumGC))
	if ms.NumGC > lastNumGC {
		from := lastNumGC
		if ms.NumGC-from > 256 {
			from = ms.NumGC - 256
		}
		for k := from + 1; k <= ms.NumGC; k++ {
			// Pause of cycle k lives at PauseNs[(k+255)%256].
			gcPauseHist.Observe(float64(ms.PauseNs[(k+255)%256]) / 1e9)
		}
		lastNumGC = ms.NumGC
	}
}
