// Package parallel provides the work-distribution primitives used by every
// compute-heavy loop in the repository: a persistent worker pool and
// grain-controlled parallel-for helpers.
//
// The package mirrors the role the OpenCL runtime plays in the paper's
// inference stack: callers express data-parallel iteration spaces and the
// pool maps them onto OS threads. Workers default to GOMAXPROCS but can be
// overridden per call, which the benchmark harness uses to emulate
// platforms with different core counts.
//
// Dispatch goes through a pool of persistent goroutines rather than a
// per-call fork/join. A DDnet forward picks its parallel axis once
// (ddnet.EnhanceBatchInto): split across images, it issues one dispatch
// for the whole forward and every kernel runs serially; split across
// kernels, it issues one dispatch per layer that has more than one tile
// or plane to share. Spawning + joining fresh goroutines for each paid a
// scheduler round-trip every time. Workers created once at first use
// spin briefly after finishing a job — catching the next layer's
// dispatch while still running — and then park on a channel receive.
// The caller always participates in its own job (claiming chunks from
// the same atomic cursor as the workers), so a dispatch never deadlocks
// even when every pool worker is busy or the loop body issues a nested
// one.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"computecovid19/internal/obs"
)

// chunksSpawned counts chunks dispatched by For — the inline
// (workers == 1) fast path dispatches none and is not counted, which
// the regression tests pin. The name predates the persistent pool
// (chunks used to each get their own goroutine); the metric's meaning —
// parallel dispatch events — is unchanged.
var chunksSpawned = obs.GetCounter("parallel_chunks_spawned_total")

// DefaultWorkers reports the worker count used when a caller passes
// workers <= 0: the current GOMAXPROCS setting.
func DefaultWorkers() int {
	return runtime.GOMAXPROCS(0)
}

// Job is a loop body together with its state: Run(lo, hi) does the
// indices [lo, hi). A pointer to a job struct the caller already owns
// (a pooled one) dispatches through ForJob without allocating, where
// the closure For takes is heap-allocated on every call — the dispatch
// stores it where escape analysis cannot follow.
type Job interface{ Run(lo, hi int) }

// forJob is one dispatch's shared state. Workers and the caller claim
// chunk c = next.Add(1)-1 until the range is exhausted; wg tracks chunk
// completions (the caller waits on it) and refs counts live references
// (the caller, plus one per pointer sitting in the dispatch channel) so
// the job is recycled only when nobody — not even a parked send — can
// still reach it. All parameter fields are written before the job is
// published via channel send, which gives every receiver a
// happens-before edge; a worker that drains a stale pointer after the
// range is exhausted sees next past the end, claims nothing, and just
// drops its reference.
type forJob struct {
	body  Job
	n     int
	chunk int
	next  atomic.Int64
	refs  atomic.Int32
	wg    sync.WaitGroup
}

// run claims and executes chunks until the range is exhausted.
func (j *forJob) run() {
	for {
		c := int(j.next.Add(1)) - 1
		lo := c * j.chunk
		if lo >= j.n {
			return
		}
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.body.Run(lo, hi)
		j.wg.Done()
	}
}

// release drops one reference and recycles the job when it was the
// last. The free list's lock orders the recycle before the next
// owner's plain-field writes, so reuse is race-free.
func (j *forJob) release() {
	if j.refs.Add(-1) == 0 {
		j.body = nil // do not pin the loop body while pooled
		freeJobs.Lock()
		freeJobs.list = append(freeJobs.list, j)
		freeJobs.Unlock()
	}
}

// freeJobs recycles forJobs. A pool worker whose thread is not running
// leaves its wake-ups parked in the dispatch channel, each holding a
// finished job until the worker drains it, so startPool fills the list
// with enough jobs to cover a full channel as well as the ones workers
// and callers hold: a warm dispatch then never allocates, however far
// the workers lag. It is a locked list rather than a sync.Pool, which
// drops its items at every GC.
var freeJobs struct {
	sync.Mutex
	list []*forJob
}

// getJob returns a recycled job, or a new one when none is free.
func getJob() *forJob {
	freeJobs.Lock()
	defer freeJobs.Unlock()
	n := len(freeJobs.list)
	if n == 0 {
		return new(forJob)
	}
	j := freeJobs.list[n-1]
	freeJobs.list = freeJobs.list[:n-1]
	return j
}

// dispatchSpin bounds the post-job spin: a worker that just finished a
// job yields this many times looking for the next dispatch before
// parking on a blocking receive. Back-to-back layer dispatches (the
// DDnet forward) land in the spin window; an idle pool costs nothing.
const dispatchSpin = 64

var (
	poolOnce sync.Once
	jobs     chan *forJob
)

func startPool() {
	nw := runtime.GOMAXPROCS(0)
	if nw < 1 {
		nw = 1
	}
	cap := 8 * nw
	if cap < 64 {
		cap = 64
	}
	jobs = make(chan *forJob, cap)
	freeJobs.Lock()
	for i := 0; i < cap+2*nw; i++ {
		freeJobs.list = append(freeJobs.list, new(forJob))
	}
	freeJobs.Unlock()
	for i := 0; i < nw; i++ {
		go poolWorker()
	}
}

// poolWorker is one persistent pool goroutine: park on the dispatch
// channel, help with the job, spin briefly for the next one, park again.
func poolWorker() {
	for {
		j := <-jobs
		for j != nil {
			j.run()
			j.release()
			j = nil
			for i := 0; i < dispatchSpin && j == nil; i++ {
				select {
				case j = <-jobs:
				default:
					runtime.Gosched()
				}
			}
		}
	}
}

// For splits the half-open index range [0, n) into contiguous chunks and
// runs fn on each chunk. fn receives the chunk bounds [lo, hi). When
// workers <= 0 the pool uses DefaultWorkers. For n == 0 it returns
// immediately; when only one worker is useful the call runs inline with
// no dispatch overhead. Otherwise up to workers-1 pool workers are woken
// with non-blocking sends — a full channel means every worker is already
// busy — and the caller works the same chunk cursor itself, so progress
// never depends on pool availability.
func For(n, workers int, fn func(lo, hi int)) {
	ForJob(n, workers, rangeFunc(fn))
}

// rangeFunc is For's loop body as a Job; a func value is pointer-shaped,
// so the conversion allocates nothing.
type rangeFunc func(lo, hi int)

func (f rangeFunc) Run(lo, hi int) { f(lo, hi) }

// ForJob is For over a Job: job.Run runs once per chunk of [0, n), by
// the same rules.
func ForJob(n, workers int, job Job) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		job.Run(0, n)
		return
	}
	poolOnce.Do(startPool)
	chunk := (n + workers - 1) / workers
	nchunks := (n + chunk - 1) / chunk
	j := getJob()
	j.body, j.n, j.chunk = job, n, chunk
	j.next.Store(0)
	j.refs.Store(1)
	j.wg.Add(nchunks)
	chunksSpawned.Add(uint64(nchunks))
	for i := 1; i < workers; i++ {
		j.refs.Add(1)
		sent := false
		select {
		case jobs <- j:
			sent = true
		default:
		}
		if !sent {
			j.refs.Add(-1)
			break
		}
	}
	j.run()
	j.wg.Wait()
	j.release()
}

// ForPooled is ForJob over a copy of j held in a *J recycled through
// pool (which holds only *J; its zero value will do), so a job whose
// state would otherwise escape to the heap on every dispatch allocates
// nothing once the pool is warm. The copy is zeroed before it goes
// back, so a pooled job pins none of its slices.
func ForPooled[J any, P interface {
	*J
	Job
}](pool *sync.Pool, n, workers int, j J) {
	p, _ := pool.Get().(P)
	if p == nil {
		p = new(J)
	}
	*p = j
	ForJob(n, workers, p)
	var zero J
	*p = zero
	pool.Put(p)
}

// ForEach runs fn once per index in [0, n), distributing indices across
// the pool in contiguous chunks. It is a convenience wrapper over For for
// loop bodies that do not benefit from seeing their chunk bounds.
func ForEach(n, workers int, fn func(i int)) {
	For(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
