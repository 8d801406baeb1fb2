// Package memplan provides size-bucketed, pooled tensor memory for the
// inference hot path. The paper's speedups come from making DDnet's
// conv/deconv kernels do nothing but arithmetic (§4.2); on the serving
// side the same discipline means the GC must not compete with the GEMM
// rung for cores, so activation buffers are planned and reused across
// requests instead of reallocated per layer.
//
// An Arena hands out float32 storage in power-of-two buckets (64 floats
// to 64 Mi floats). Freed buffers go to a small per-arena free list
// first — deterministic reuse, so a warm pipeline's steady state is
// measurable with testing.AllocsPerRun — and overflow into a global
// sync.Pool shared by all arenas, which the GC may trim under pressure.
// Scopes group allocations by lifetime: everything a Scope hands out is
// released when it closes, with Free for tighter per-layer lifetimes.
//
// With CC_MEMDEBUG=1 (tensor.SetMemDebug) released buffers are filled
// with NaN poison; double releases and use-after-release writes panic.
package memplan

import (
	"fmt"
	"math/bits"
	"sync"

	"computecovid19/internal/obs"
	"computecovid19/internal/tensor"
)

const (
	// Bucket b holds slices of capacity 1<<(b+minBits) floats: 64
	// floats (256 B) up to 64 Mi floats (256 MB).
	minBits = 6
	maxBits = 26

	// NumBuckets is the number of size classes an Arena manages.
	NumBuckets = maxBits - minBits + 1

	// bucketKeep caps each arena-local free list; beyond it, freed
	// buffers overflow into the shared sync.Pool.
	bucketKeep = 64
)

// BucketSize returns the capacity in float32s of size class b.
func BucketSize(b int) int { return 1 << (b + minBits) }

// bucketFor returns the smallest size class whose capacity is >= n
// elements, or -1 when n exceeds the largest bucket (callers fall back
// to plain heap allocation).
func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	b := bits.Len(uint(n - 1))
	if b < minBits {
		b = minBits
	}
	if b > maxBits {
		return -1
	}
	return b - minBits
}

// bucketForCap returns the largest size class whose capacity is <= c —
// the class a slice of capacity c can safely serve — or -1 when c is
// below the smallest bucket (the slice is dropped to the GC). Foreign
// slices (plain make, non-power-of-two caps) pool safely this way.
func bucketForCap(c int) int {
	b := bits.Len(uint(c)) - 1
	if b < minBits {
		return -1
	}
	if b > maxBits {
		b = maxBits
	}
	return b - minBits
}

// sharedPool is the overflow tier behind every arena's local free
// lists: per-bucket sync.Pools of *tensor.Tensor whose Data holds a
// full-capacity bucket slice. The GC may clear it between cycles, which
// is why it is the second tier — steady-state reuse comes from the
// deterministic per-arena lists.
var sharedPool [NumBuckets]sync.Pool

// Per-bucket pool traffic counters, exported as mem_pool_hits_total /
// mem_pool_misses_total with a bucket="<floats>" label.
var (
	hitCounters  [NumBuckets]*obs.Counter
	missCounters [NumBuckets]*obs.Counter
)

func init() {
	for b := 0; b < NumBuckets; b++ {
		hitCounters[b] = obs.GetCounter(fmt.Sprintf(`mem_pool_hits_total{bucket="%d"}`, BucketSize(b)))
		missCounters[b] = obs.GetCounter(fmt.Sprintf(`mem_pool_misses_total{bucket="%d"}`, BucketSize(b)))
	}
}

// Arena is a size-bucketed allocator for tensor storage. Get/Release
// and the raw GetFloats/PutFloats are safe for concurrent use; each
// serve worker typically owns one arena so scans recycle buffers across
// requests without cross-worker contention.
type Arena struct {
	mu      sync.Mutex
	floats  [NumBuckets][]*tensor.Tensor // local free lists (header + full-cap storage)
	bools   [NumBuckets][][]bool
	headers []*tensor.Tensor // spare headers (Data == nil) for GetFloats
	scopes  []*Scope
	hits    uint64
	misses  uint64
}

// New returns an empty arena.
func New() *Arena { return &Arena{} }

// global serves code that has no arena handle — notably the kernels
// package's GEMM staging: ConvFused and DeconvGEMM take no arena.
var global = New()

// Global returns the process-wide fallback arena.
func Global() *Arena { return global }

// GetFloats hands out an n-float scratch slice from the global arena.
func GetFloats(n int) []float32 { return global.GetFloats(n) }

// PutFloats returns a scratch slice to the global arena.
func PutFloats(s []float32) { global.PutFloats(s) }

// take pops a pooled tensor (full-capacity Data) for bucket b, trying
// the local list then the shared pool. Caller holds a.mu.
func (a *Arena) take(b int) *tensor.Tensor {
	if l := a.floats[b]; len(l) > 0 {
		t := l[len(l)-1]
		l[len(l)-1] = nil
		a.floats[b] = l[:len(l)-1]
		return t
	}
	if v := sharedPool[b].Get(); v != nil {
		return v.(*tensor.Tensor)
	}
	return nil
}

// keep stores a pooled tensor (full-capacity Data) under bucket b.
// Caller holds a.mu.
func (a *Arena) keep(b int, t *tensor.Tensor) {
	if len(a.floats[b]) < bucketKeep {
		a.floats[b] = append(a.floats[b], t)
		return
	}
	sharedPool[b].Put(t)
}

func setShape(t *tensor.Tensor, shape []int) {
	if cap(t.Shape) >= len(shape) {
		t.Shape = t.Shape[:len(shape)]
	} else {
		c := len(shape)
		if c < 8 {
			c = 8 // rank headroom so one header serves any shape
		}
		t.Shape = make([]int, len(shape), c)
	}
	copy(t.Shape, shape)
}

// Get returns a tensor of the given shape, reusing pooled storage when
// a large-enough bucket is free. Like GetFloats it does NOT zero the
// contents: the caller writes every element it reads (under
// CC_MEMDEBUG a reused tensor arrives NaN-poisoned, so a
// read-before-write surfaces as NaN propagation), and a caller that
// needs zeros clears them itself. Oversize requests fall back to a
// fresh heap slice. The returned tensor must go back via Release
// (directly or through a Scope); its Data must not be retained after.
func (a *Arena) Get(shape ...int) *tensor.Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic("memplan: negative dimension")
		}
		n *= d
	}
	b := bucketFor(n)
	if b < 0 {
		// Oversize: plain heap allocation (built inline — handing shape
		// to tensor.New would make the variadic escape on every call).
		t := &tensor.Tensor{Data: make([]float32, n)}
		setShape(t, shape)
		return t
	}
	a.mu.Lock()
	t := a.take(b)
	if t != nil {
		a.hits++
	} else {
		a.misses++
	}
	a.mu.Unlock()
	if t == nil {
		missCounters[b].Inc()
		t = &tensor.Tensor{Data: make([]float32, BucketSize(b))}
	} else {
		hitCounters[b].Inc()
		debugTake(t.Data)
	}
	t.Data = t.Data[:n]
	setShape(t, shape)
	return t
}

// Release returns a tensor's storage to the arena. The tensor header
// itself is recycled as the pooled wrapper, so neither it nor its Data
// may be used afterwards (CC_MEMDEBUG catches violations). Foreign
// tensors (plain tensor.New) are adopted at the largest bucket their
// capacity serves; undersized ones are dropped to the GC. nil is a
// no-op.
func (a *Arena) Release(t *tensor.Tensor) {
	if t == nil {
		return
	}
	data := t.Data
	t.Data = nil
	t.Shape = t.Shape[:0]
	b := bucketForCap(cap(data))
	if b < 0 {
		a.putHeader(t)
		return
	}
	data = data[:BucketSize(b)]
	debugPut(data)
	t.Data = data
	a.mu.Lock()
	a.keep(b, t)
	a.mu.Unlock()
}

// GetFloats returns an n-float scratch slice with bucket-sized
// capacity: Get's storage, not zeroed, without its header.
func (a *Arena) GetFloats(n int) []float32 {
	t := a.Get(n)
	data := t.Data
	a.putHeader(t)
	return data
}

// PutFloats returns a scratch slice to the arena (Release). Slices
// below the smallest bucket are dropped.
func (a *Arena) PutFloats(data []float32) {
	var t *tensor.Tensor
	a.mu.Lock()
	if n := len(a.headers); n > 0 {
		t = a.headers[n-1]
		a.headers = a.headers[:n-1]
	}
	a.mu.Unlock()
	if t == nil {
		t = new(tensor.Tensor)
	}
	t.Data = data
	a.Release(t)
}

// GetBools returns a zeroed n-bool scratch slice (segmentation masks).
func (a *Arena) GetBools(n int) []bool {
	b := bucketFor(n)
	if b < 0 {
		return make([]bool, n)
	}
	a.mu.Lock()
	var data []bool
	if l := a.bools[b]; len(l) > 0 {
		data = l[len(l)-1]
		l[len(l)-1] = nil
		a.bools[b] = l[:len(l)-1]
		a.hits++
	} else {
		a.misses++
	}
	a.mu.Unlock()
	if data == nil {
		missCounters[b].Inc()
		return make([]bool, n, BucketSize(b))
	}
	hitCounters[b].Inc()
	debugTakeBools(data)
	data = data[:n]
	clear(data)
	return data
}

// PutBools returns a bool scratch slice to the arena.
func (a *Arena) PutBools(data []bool) {
	b := bucketForCap(cap(data))
	if b < 0 {
		return
	}
	data = data[:BucketSize(b)]
	debugPutBools(data)
	a.mu.Lock()
	if len(a.bools[b]) < bucketKeep {
		a.bools[b] = append(a.bools[b], data)
	}
	a.mu.Unlock()
}

func (a *Arena) putHeader(t *tensor.Tensor) {
	t.Data = nil
	a.mu.Lock()
	if len(a.headers) < bucketKeep {
		a.headers = append(a.headers, t)
	}
	a.mu.Unlock()
}

// Stats is a point-in-time pool traffic summary.
type Stats struct {
	Hits   uint64 // pooled reuses
	Misses uint64 // heap allocations
}

// Stats returns the arena's cumulative hit/miss counts.
func (a *Arena) Stats() Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return Stats{Hits: a.hits, Misses: a.misses}
}

// Scope groups arena allocations by lifetime: Get appends to the
// scope's owned set, Free releases one early (inner layer temporaries),
// Close releases everything left. A Scope is single-goroutine; the
// arena behind it is not.
type Scope struct {
	a     *Arena
	owned []*tensor.Tensor
}

// NewScope returns a (recycled) empty scope backed by the arena.
func (a *Arena) NewScope() *Scope {
	a.mu.Lock()
	var sc *Scope
	if n := len(a.scopes); n > 0 {
		sc = a.scopes[n-1]
		a.scopes[n-1] = nil
		a.scopes = a.scopes[:n-1]
	}
	a.mu.Unlock()
	if sc == nil {
		sc = &Scope{owned: make([]*tensor.Tensor, 0, 32)}
	}
	sc.a = a
	return sc
}

// Arena returns the arena backing the scope.
func (sc *Scope) Arena() *Arena { return sc.a }

// Get allocates a tensor owned by the scope, not zeroed (Arena.Get).
func (sc *Scope) Get(shape ...int) *tensor.Tensor {
	t := sc.a.Get(shape...)
	sc.owned = append(sc.owned, t)
	return t
}

// Free releases one scope-owned tensor early. Panics if the tensor is
// not (or no longer) owned by the scope — freeing through the wrong
// scope is a lifetime bug, not a recoverable condition.
func (sc *Scope) Free(t *tensor.Tensor) {
	for i := len(sc.owned) - 1; i >= 0; i-- {
		if sc.owned[i] == t {
			last := len(sc.owned) - 1
			sc.owned[i] = sc.owned[last]
			sc.owned[last] = nil
			sc.owned = sc.owned[:last]
			sc.a.Release(t)
			return
		}
	}
	panic("memplan: Scope.Free of tensor not owned by this scope")
}

// Close releases all remaining owned tensors and recycles the scope
// itself.
func (sc *Scope) Close() {
	a := sc.a
	for i, t := range sc.owned {
		a.Release(t)
		sc.owned[i] = nil
	}
	sc.owned = sc.owned[:0]
	sc.a = nil
	a.mu.Lock()
	if len(a.scopes) < bucketKeep {
		a.scopes = append(a.scopes, sc)
	}
	a.mu.Unlock()
}
