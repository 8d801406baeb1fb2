// Package distrib reproduces the paper's distributed training substrate
// (§4.1): synchronous data-parallel training in the style of PyTorch
// DistributedDataParallel over the gloo backend. N logical nodes
// (goroutines) each hold a model replica, compute gradients on their
// shard of the global batch, average them with a ring all-reduce, and
// step identical optimizers — keeping every replica bit-for-bit in sync,
// exactly as DDP does.
//
// The package also provides the interconnect cost model used to project
// the paper's Table 3 runtimes onto their 18-node T4 cluster.
package distrib

import (
	"sync"

	"computecovid19/internal/obs"
)

// allReduceBytes accumulates the total bytes moved on the ring across
// all nodes — the live counterpart of Table 3's communication volume,
// 2·(n−1)/n vectors per node. Registered at package init
// so it appears in every metrics export of a binary that links distrib,
// even before the first step runs.
var allReduceBytes = obs.GetCounter("distrib_allreduce_bytes_total")

// allReduceCalls counts ring all-reduce invocations (one per parameter
// tensor per step, as gloo buckets do).
var allReduceCalls = obs.GetCounter("distrib_allreduce_calls_total")

// RingAllReduce sums the per-node vectors element-wise and leaves the
// result in every node's vector, using the bandwidth-optimal ring
// algorithm: a reduce-scatter pass followed by an all-gather pass, each
// moving (n-1)/n of the data per node. All vectors must have equal
// length. It runs one goroutine per node communicating over channels,
// mirroring a gloo ring on a physical cluster.
func RingAllReduce(vectors [][]float32) {
	n := len(vectors)
	if n <= 1 {
		return
	}
	length := len(vectors[0])
	for _, v := range vectors {
		if len(v) != length {
			panic("distrib: RingAllReduce vectors must have equal length")
		}
	}
	if length == 0 {
		return
	}

	// Wire accounting: every one of the 2(n−1) ring steps moves each of
	// the n chunks once, i.e. 4·length bytes across the ring per step.
	allReduceCalls.Inc()
	allReduceBytes.Add(uint64(2*(n-1)) * uint64(4*length))

	// Chunk boundaries: chunk c covers [bounds[c], bounds[c+1]).
	chunks := n
	bounds := make([]int, chunks+1)
	for c := 0; c <= chunks; c++ {
		bounds[c] = c * length / chunks
	}

	// links[i] carries messages from node i to node (i+1)%n.
	links := make([]chan []float32, n)
	for i := range links {
		links[i] = make(chan []float32, 1)
	}

	var wg sync.WaitGroup
	for node := 0; node < n; node++ {
		wg.Add(1)
		go func(me int) {
			defer wg.Done()
			prev := (me - 1 + n) % n
			v := vectors[me]

			// Reduce-scatter: after n-1 steps, node me owns the fully
			// reduced chunk (me+1)%n.
			for step := 0; step < n-1; step++ {
				sendChunk := (me - step + n) % n
				lo, hi := bounds[sendChunk], bounds[sendChunk+1]
				out := make([]float32, hi-lo)
				copy(out, v[lo:hi])
				links[me] <- out

				recvChunk := (me - step - 1 + n) % n
				in := <-links[prev]
				rlo := bounds[recvChunk]
				for i, x := range in {
					v[rlo+i] += x
				}
			}
			// All-gather: circulate the reduced chunks.
			for step := 0; step < n-1; step++ {
				sendChunk := (me - step + 1 + n) % n
				lo, hi := bounds[sendChunk], bounds[sendChunk+1]
				out := make([]float32, hi-lo)
				copy(out, v[lo:hi])
				links[me] <- out

				recvChunk := (me - step + n) % n
				in := <-links[prev]
				rlo := bounds[recvChunk]
				copy(v[rlo:rlo+len(in)], in)
			}
		}(node)
	}
	wg.Wait()
}

// AllReduceMean averages the per-node vectors in place (all-reduce sum
// followed by division by the node count).
func AllReduceMean(vectors [][]float32) {
	RingAllReduce(vectors)
	n := float32(len(vectors))
	if n <= 1 {
		return
	}
	for _, v := range vectors {
		for i := range v {
			v[i] /= n
		}
	}
}
