package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"computecovid19/internal/obs"
	"computecovid19/internal/serve"
)

// This file is the gateway's scatter/gather slice sharding — the
// paper's multi-node decomposition (DDnet enhancement is per-slice, so
// a scan's slices can be enhanced anywhere) applied inside the serving
// data plane. A sharded scan runs in two legs:
//
//  1. scatter: the scan's slices are split into contiguous chunks
//     (planChunks; the size comes from the makespan model when a
//     per-slice time is configured), each chunk is sent to a
//     healthy replica as a POST /v1/enhance call through the same
//     routing/retry/hedging machinery scans use (doCall), and the
//     enhanced chunks are gathered into one volume in slice order —
//     each chunk writes a disjoint range, so the gather buffer needs no
//     locks;
//  2. classify: the reassembled volume is submitted as a pre-enhanced
//     /v1/scan to one replica, which skips its enhancement stage and
//     runs segment+classify.
//
// Chunk failures re-dispatch to surviving replicas (bounded by
// MaxRetries per chunk) and stragglers are hedged off the chunk-latency
// p95, so a replica dying mid-scan costs one chunk of work, not the
// scan. If a chunk exhausts its budget anyway, handleScan falls back to
// the whole unsharded path — sharding never adds a client-visible
// failure mode. Per-slice forwards are independent, and AppendScan
// writes encoding/json's bytes — shortest-form float32 literals that
// ReadScan parses back exactly — so the sharded result is bit-identical
// to the single-replica one (regression-tested across chunk sizes).

// chunkRange is one scatter unit: slices [z0, z1) of the scan.
type chunkRange struct {
	z0, z1 int
}

// shouldShard gates the sharded path: sharding must be enabled, the
// scan deep enough to split, not already enhanced by the client, and
// there must be at least two healthy replicas to scatter across.
func (g *Gateway) shouldShard(req *serve.ScanRequest) bool {
	if g.cfg.ShardSlices <= 0 || req.D < g.cfg.ShardSlices || req.PreEnhanced {
		return false
	}
	return g.healthyCount() >= 2
}

func (g *Gateway) healthyCount() int {
	n := 0
	for _, r := range g.snapshotReplicas() {
		if r.healthy() {
			n++
		}
	}
	return n
}

// planChunks splits d slices into contiguous chunks. An explicit
// ShardChunkSlices wins; otherwise, with a measured ShardEnhanceSlice,
// shardChunkSlices picks the makespan-optimal size, and with neither
// the fallback is an even split of two chunks per healthy replica —
// small enough to spread re-dispatch granularity, large enough to
// amortize the HTTP round trip.
func (g *Gateway) planChunks(d, healthy int) []chunkRange {
	size := g.cfg.ShardChunkSlices
	if size <= 0 {
		if g.cfg.ShardEnhanceSlice > 0 {
			size = shardChunkSlices(d, healthy, g.cfg.ShardEnhanceSlice, g.cfg.ShardChunkOverhead)
		} else {
			size = (d + 2*healthy - 1) / (2 * healthy)
		}
	}
	if size < 1 {
		size = 1
	}
	if size > d {
		size = d
	}
	chunks := make([]chunkRange, 0, (d+size-1)/size)
	for z := 0; z < d; z += size {
		z1 := z + size
		if z1 > d {
			z1 = d
		}
		chunks = append(chunks, chunkRange{z0: z, z1: z1})
	}
	return chunks
}

// shardChunkSlices picks the chunk size (in slices) for a sharded scan
// of the given depth: the size minimizing the predicted enhancement
// makespan under the uniform-chunk idealization — ceil(D/k) chunks of
// duration k·perSlice + overhead, executed in ceil(chunks/R) waves
// across R replicas. Ties break toward larger chunks (fewer round
// trips, same makespan). With no per-slice time the toll-free optimum
// degenerates to k = 1, so an even split into one wave per replica is
// returned instead.
func shardChunkSlices(slices, replicas int, perSlice, overhead time.Duration) int {
	if replicas <= 0 {
		replicas = 1
	}
	if slices <= 1 {
		return 1
	}
	if perSlice <= 0 {
		return (slices + replicas - 1) / replicas
	}
	best, bestSpan := 1, time.Duration(math.MaxInt64)
	for k := 1; k <= slices; k++ {
		if span := shardedEnhanceSpan(slices, replicas, k, perSlice, overhead); span <= bestSpan {
			best, bestSpan = k, span
		}
	}
	return best
}

// shardedEnhanceSpan is the predicted enhancement makespan of a sharded
// scan at chunk size k: every chunk modeled at the full-chunk duration,
// list-scheduled in waves of one chunk per replica.
func shardedEnhanceSpan(slices, replicas, k int, perSlice, overhead time.Duration) time.Duration {
	nchunks := (slices + k - 1) / k
	waves := (nchunks + replicas - 1) / replicas
	return time.Duration(waves) * (time.Duration(k)*perSlice + overhead)
}

// doSharded runs one scan through the sharded path: scatter/gather the
// enhancement, then submit the reassembled volume pre-enhanced for
// segment+classify through the ordinary scan machinery (so the classify
// leg gets the same retry/hedge protection, and affinity keys on the
// enhanced content).
func (g *Gateway) doSharded(ctx context.Context, req *serve.ScanRequest) attemptResult {
	enhanced, err := g.scatterEnhance(ctx, req)
	if err != nil {
		return attemptResult{err: err}
	}
	creq := serve.ScanRequest{
		D: req.D, H: req.H, W: req.W,
		Data:        enhanced,
		DeadlineMS:  req.DeadlineMS,
		PreEnhanced: true,
	}
	body, err := encodeScan(&creq)
	if err != nil {
		return attemptResult{err: err}
	}
	return g.do(ctx, body, contentKey(&creq))
}

// scatterEnhance fans the scan's slices out across healthy replicas as
// chunk-range enhance calls and gathers the enhanced volume in slice
// order. The fan-out is a bounded worker pool (about two outstanding
// chunks per healthy replica — enough to keep every replica busy while
// letting the load-aware router balance), each worker writing its
// chunk's disjoint range of the shared gather buffer. The first chunk
// to exhaust its retry budget cancels the rest.
func (g *Gateway) scatterEnhance(ctx context.Context, req *serve.ScanRequest) ([]float32, error) {
	ctx, sp := obs.StartCtx(ctx, "gateway/scatter")
	defer sp.End()

	healthy := g.healthyCount()
	if healthy < 1 {
		healthy = 1
	}
	chunks := g.planChunks(req.D, healthy)
	if sp != nil {
		sp.SetAttr("slices", req.D)
		sp.SetAttr("chunks", len(chunks))
	}
	shardScansTotal.Inc()
	start := time.Now()
	defer func() { shardScatterSeconds.Observe(time.Since(start).Seconds()) }()

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	hw := req.H * req.W
	out := make([]float32, req.D*hw)
	workers := 2 * healthy
	if workers > len(chunks) {
		workers = len(chunks)
	}
	next := make(chan chunkRange)
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		fail    error
	)
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer wg.Done()
			for c := range next {
				data, attempts, err := g.enhanceChunk(cctx, req, c)
				if attempts > 1 {
					shardRedispatchTotal.Add(uint64(attempts - 1))
				}
				if err != nil {
					errOnce.Do(func() {
						fail = fmt.Errorf("chunk [%d,%d): %w", c.z0, c.z1, err)
						cancel()
					})
					continue // keep draining next so the feeder never blocks
				}
				copy(out[c.z0*hw:c.z1*hw], data)
				shardChunksTotal.Inc()
			}
		}()
	}
	for _, c := range chunks {
		next <- c
	}
	close(next)
	wg.Wait()
	if fail != nil {
		return nil, fail
	}
	return out, nil
}

// enhanceChunk routes one chunk through the shared retry/hedge
// machinery and returns the enhanced voxels plus the number of routing
// attempts consumed (re-dispatch accounting).
func (g *Gateway) enhanceChunk(ctx context.Context, req *serve.ScanRequest, c chunkRange) ([]float32, int, error) {
	hw := req.H * req.W
	voxels := req.Data[c.z0*hw : c.z1*hw]
	body, err := encodeScan(&serve.ScanRequest{D: c.z1 - c.z0, H: req.H, W: req.W, Data: voxels})
	if err != nil {
		return nil, 1, err
	}
	res := g.doCall(ctx, "", g.chunkLat, func(ctx context.Context, rep *replica, hedged bool) attemptResult {
		return g.enhanceReplica(ctx, rep, body, c, len(voxels), hedged)
	})
	if res.err != nil {
		return nil, res.attempts, res.err
	}
	if res.status != http.StatusOK {
		return nil, res.attempts, fmt.Errorf("replica %s rejected chunk: status %d: %s",
			repName(res.rep), res.status, res.body)
	}
	return res.chunk, res.attempts, nil
}

// encodeScan is the body of an outbound scan or chunk request. It is
// not pooled: net/http may read a request body after Do returns (a
// cancelled hedge), so the bytes are left to the GC. The capacity fits
// a typical HU literal and its comma per voxel; longer ones grow it.
func encodeScan(req *serve.ScanRequest) ([]byte, error) {
	return serve.AppendScan(make([]byte, 0, 64+12*len(req.Data)), req)
}

// enhanceReplica performs one chunk-range enhance attempt against one
// replica — the chunk-sized sibling of scanReplica. Transport failures
// feed the same ejection state machine, backpressure (429/503) surfaces
// as a retryable error with the advertised wait, and latency feeds the
// chunk hedge profile. The reply is read through the bound a request
// of the chunk's voxels gets, so a replica streaming an endless reply
// fails the attempt instead of being buffered.
func (g *Gateway) enhanceReplica(ctx context.Context, rep *replica, body []byte, c chunkRange, voxels int, hedged bool) attemptResult {
	res := attemptResult{rep: rep, hedged: hedged}
	rep.acquire()
	defer rep.release()

	ctx, asp := obs.StartCtx(ctx, "gateway/chunk")
	defer asp.End()
	if asp != nil {
		asp.SetAttr("replica", rep.name)
		asp.SetAttr("z0", c.z0)
		asp.SetAttr("z1", c.z1)
		if hedged {
			asp.SetAttr("hedged", true)
		}
	}
	start := time.Now()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/enhance", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := asp.Traceparent(); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := rep.client.Do(req)
	if err != nil {
		res.err = err
		if ctx.Err() == nil {
			g.noteObservation(rep, false)
		}
		return res
	}

	switch {
	case resp.StatusCode == http.StatusOK:
		var er serve.ScanRequest
		wire, err := serve.ReadScan(http.MaxBytesReader(nil, resp.Body, serve.MaxBodyBytes(voxels)), &er)
		resp.Body.Close()
		wire.Release()
		if err != nil {
			res.err = fmt.Errorf("replica %s: chunk decode: %w", rep.name, err)
			return res
		}
		if er.D != c.z1-c.z0 || len(er.Data) != er.D*er.H*er.W {
			res.err = fmt.Errorf("replica %s: chunk shape %dx%dx%d with %d values, want %d slices",
				rep.name, er.D, er.H, er.W, len(er.Data), c.z1-c.z0)
			return res
		}
		res.chunk = er.Data
		res.status = http.StatusOK
		rep.served.Add(1)
		d := time.Since(start)
		rep.observeLatency(d)
		g.chunkLat.Observe(d.Seconds())
		shardChunkSeconds.Observe(d.Seconds())
		g.noteObservation(rep, true)
		return res

	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		res.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		res.err = fmt.Errorf("replica %s: chunk status %d", rep.name, resp.StatusCode)
		return res

	case resp.StatusCode >= 500:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		res.err = fmt.Errorf("replica %s: chunk status %d", rep.name, resp.StatusCode)
		g.noteObservation(rep, false)
		return res

	default:
		// 4xx: the replica judged the chunk itself invalid — terminal for
		// this chunk; the caller surfaces it and the scan falls back.
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		res.status = resp.StatusCode
		res.body = b
		return res
	}
}
