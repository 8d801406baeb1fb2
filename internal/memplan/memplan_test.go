package memplan

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"computecovid19/internal/tensor"
)

func TestBucketFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 0}, {63, 0}, {64, 0},
		{65, 1}, {128, 1}, {129, 2},
		{4096, 6}, {4097, 7},
		{1 << 26, NumBuckets - 1},
		{1<<26 + 1, -1},
	}
	for _, c := range cases {
		if got := bucketFor(c.n); got != c.want {
			t.Errorf("bucketFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	for _, c := range []struct{ cap, want int }{
		{63, -1}, {64, 0}, {100, 0}, {127, 0}, {128, 1},
		{4096, 6}, {1 << 26, NumBuckets - 1}, {1<<27 + 3, NumBuckets - 1},
	} {
		if got := bucketForCap(c.cap); got != c.want {
			t.Errorf("bucketForCap(%d) = %d, want %d", c.cap, got, c.want)
		}
	}
	for b := 0; b < NumBuckets; b++ {
		n := BucketSize(b)
		if bucketFor(n) != b {
			t.Errorf("bucketFor(BucketSize(%d)) = %d", b, bucketFor(n))
		}
		if bucketForCap(n) != b {
			t.Errorf("bucketForCap(BucketSize(%d)) = %d", b, bucketForCap(n))
		}
	}
}

func TestGetReleaseReuses(t *testing.T) {
	a := New()
	x := a.Get(16, 16)
	if len(x.Data) != 256 || x.Shape[0] != 16 || x.Shape[1] != 16 {
		t.Fatalf("bad tensor: len=%d shape=%v", len(x.Data), x.Shape)
	}
	x.Data[0] = 42
	p := &x.Data[0]
	a.Release(x)
	y := a.Get(200) // same bucket (256)
	if &y.Data[0] != p {
		t.Fatalf("expected pooled storage to be reused")
	}
	if y.Data[0] != 42 {
		t.Fatalf("Get cleared the reused tensor: %v, want the 42 left in it", y.Data[0])
	}
	if len(y.Data) != 200 || len(y.Shape) != 1 || y.Shape[0] != 200 {
		t.Fatalf("bad reused tensor: len=%d shape=%v", len(y.Data), y.Shape)
	}
	s := a.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", s)
	}
}

func TestForeignTensorAdopted(t *testing.T) {
	a := New()
	x := tensor.New(100) // cap 100 -> floor bucket 64
	p := &x.Data[0]
	a.Release(x)
	s := a.GetFloats(64)
	if &s[0] != p {
		t.Fatalf("foreign storage not adopted at floor bucket")
	}
	a.PutFloats(s)
}

func TestGetFloatsPutFloatsRoundTrip(t *testing.T) {
	a := New()
	s := a.GetFloats(1000)
	if len(s) != 1000 || cap(s) != 1024 {
		t.Fatalf("len=%d cap=%d", len(s), cap(s))
	}
	p := &s[0]
	a.PutFloats(s)
	s2 := a.GetFloats(600) // same bucket (1024)
	if &s2[0] != p {
		t.Fatalf("expected float scratch reuse")
	}
}

func TestBoolsRoundTrip(t *testing.T) {
	a := New()
	m := a.GetBools(300)
	if len(m) != 300 {
		t.Fatalf("len=%d", len(m))
	}
	m[7] = true
	p := &m[0]
	a.PutBools(m)
	m2 := a.GetBools(400) // same bucket (512)
	if &m2[0] != p {
		t.Fatalf("expected bool scratch reuse")
	}
	if m2[7] {
		t.Fatalf("reused bool scratch not cleared")
	}
}

func TestScopeLifetimes(t *testing.T) {
	a := New()
	sc := a.NewScope()
	x := sc.Get(64)
	y := sc.Get(64)
	sc.Free(x)
	sc.Close()
	_ = y
	// Both owned tensors are back: two consecutive gets reuse both.
	g1, g2 := a.Get(64), a.Get(64)
	s := a.Stats()
	if s.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (everything after the first two gets pooled)", s.Misses)
	}
	a.Release(g1)
	a.Release(g2)

	defer func() {
		if recover() == nil {
			t.Fatalf("Free of unowned tensor did not panic")
		}
	}()
	sc2 := a.NewScope()
	defer sc2.Close()
	sc2.Free(tensor.New(4))
}

func withMemDebug(t *testing.T, on bool) {
	t.Helper()
	prev := tensor.SetMemDebug(on)
	t.Cleanup(func() { tensor.SetMemDebug(prev) })
}

func TestDebugPoisonFill(t *testing.T) {
	withMemDebug(t, true)
	a := New()
	x := a.Get(64)
	data := x.Data
	a.Release(x)
	for i := range data {
		if math.Float32bits(data[i]) != tensor.PoisonBits {
			t.Fatalf("word %d not poisoned: %x", i, math.Float32bits(data[i]))
		}
	}
	y := a.Get(64) // verifies the poison and hands it out as it is
	for i, v := range y.Data {
		if math.Float32bits(v) != tensor.PoisonBits {
			t.Fatalf("reused word %d arrived as %x, not NaN-poisoned", i, math.Float32bits(v))
		}
	}
	a.Release(y)
}

func TestDebugDoubleReleasePanics(t *testing.T) {
	withMemDebug(t, true)
	a := New()
	x := a.Get(64)
	save := *x // Release nils the header; keep a copy to re-release
	a.Release(x)
	defer func() {
		if recover() == nil {
			t.Fatalf("double release did not panic")
		}
		// drain the poisoned buffer so other tests see clean state
		z := a.Get(64)
		a.Release(z)
	}()
	resurrect := save
	a.Release(&resurrect)
}

func TestDebugUseAfterReleasePanics(t *testing.T) {
	withMemDebug(t, true)
	a := New()
	x := a.Get(64)
	data := x.Data
	a.Release(x)
	data[3] = 1 // stale write through a retained reference
	defer func() {
		if recover() == nil {
			t.Fatalf("use-after-release write did not panic on reuse")
		}
	}()
	a.Get(64)
}

func TestDebugBoolDoubleReleasePanics(t *testing.T) {
	withMemDebug(t, true)
	a := New()
	m := a.GetBools(64)
	a.PutBools(m)
	defer func() {
		if recover() == nil {
			t.Fatalf("bool double release did not panic")
		}
		m2 := a.GetBools(64)
		a.PutBools(m2)
	}()
	a.PutBools(m[:cap(m)])
}

// TestConcurrentGetRelease stresses one arena from many goroutines —
// the serve worker-pool shape — and runs under -race in make race.
func TestConcurrentGetRelease(t *testing.T) {
	a := New()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				switch rng.Intn(3) {
				case 0:
					x := a.Get(1 + rng.Intn(5000))
					for j := range x.Data {
						x.Data[j] = float32(j)
					}
					a.Release(x)
				case 1:
					s := a.GetFloats(1 + rng.Intn(5000))
					for j := range s {
						s[j] = 1
					}
					a.PutFloats(s)
				default:
					sc := a.NewScope()
					u := sc.Get(128)
					v := sc.Get(1 + rng.Intn(100))
					u.Data[0] = v.Data[0]
					sc.Close()
				}
			}
		}(int64(w))
	}
	wg.Wait()
}

// TestAllocsWarmGetRelease pins the tentpole property at the arena
// level: a warm Get/Release cycle performs zero heap allocations.
func TestAllocsWarmGetRelease(t *testing.T) {
	a := New()
	warm := func() {
		x := a.Get(64, 64)
		s := a.GetFloats(1 << 12)
		a.PutFloats(s)
		a.Release(x)
	}
	warm()
	if n := testing.AllocsPerRun(100, warm); n != 0 {
		t.Fatalf("warm Get/Release allocates %v allocs/op, want 0", n)
	}
	scoped := func() {
		sc := a.NewScope()
		x := sc.Get(256)
		y := sc.Get(256)
		x.Data[0] = y.Data[0]
		sc.Close()
	}
	scoped()
	if n := testing.AllocsPerRun(100, scoped); n != 0 {
		t.Fatalf("warm scoped Get allocates %v allocs/op, want 0", n)
	}
}

func TestUndersizedReleaseDropsStorage(t *testing.T) {
	a := New()
	x := tensor.New(10) // cap below the smallest bucket
	a.Release(x)
	y := a.Get(10) // still bucket 0 (64 floats): must be a miss
	s := a.Stats()
	if s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want the dropped storage not to be pooled", s)
	}
	a.Release(y)
}
