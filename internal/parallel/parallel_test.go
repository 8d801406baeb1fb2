package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestForClampsWorkersToN pins the workers > n clamp: no more than one
// chunk per index, each of size exactly one, and the spawned-chunk
// counter advances by exactly n.
func TestForClampsWorkersToN(t *testing.T) {
	const n = 3
	before := chunksSpawned.Value()
	var mu sync.Mutex
	var chunks [][2]int
	For(n, 64, func(lo, hi int) {
		mu.Lock()
		chunks = append(chunks, [2]int{lo, hi})
		mu.Unlock()
	})
	if len(chunks) != n {
		t.Fatalf("workers=64 over n=3 produced %d chunks, want %d (clamp broken)", len(chunks), n)
	}
	for _, c := range chunks {
		if c[1]-c[0] != 1 {
			t.Fatalf("chunk %v has size %d, want 1", c, c[1]-c[0])
		}
	}
	if got := chunksSpawned.Value() - before; got != n {
		t.Fatalf("spawned-chunk counter advanced by %d, want %d", got, n)
	}
}

// TestForSingleWorkerRunsInline pins the workers == 1 fast path: one
// call covering [0, n) and zero spawned chunks (no goroutine overhead).
func TestForSingleWorkerRunsInline(t *testing.T) {
	before := chunksSpawned.Value()
	calls := 0
	For(100, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("inline path got chunk [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("inline path made %d calls, want 1", calls)
	}
	if got := chunksSpawned.Value() - before; got != 0 {
		t.Fatalf("inline path spawned %d chunks, want 0", got)
	}
	// n == 1 clamps any worker count onto the same inline path.
	before = chunksSpawned.Value()
	For(1, 8, func(lo, hi int) {})
	if got := chunksSpawned.Value() - before; got != 0 {
		t.Fatalf("n=1 spawned %d chunks, want 0", got)
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1023} {
		for _, w := range []int{0, 1, 2, 5, 64} {
			hits := make([]int32, n)
			For(n, w, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, h)
				}
			}
		}
	}
}

func TestForEachCoversRange(t *testing.T) {
	var sum int64
	ForEach(100, 4, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum = %d, want 4950", sum)
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, 4, func(lo, hi int) { called = true })
	For(-5, 4, func(lo, hi int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}
