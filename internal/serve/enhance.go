package serve

import (
	"context"
	"net/http"
	"time"

	"computecovid19/internal/memplan"
	"computecovid19/internal/obs"
	"computecovid19/internal/volume"
)

// handleEnhance is the chunk-range enhancement endpoint — the replica
// side of the gateway's scatter/gather sharding. It synchronously runs
// Enhancement AI over the posted sub-volume (a contiguous slice range of
// some larger scan) and returns the enhanced chunk. Per-slice forwards
// are independent, so enhancing a chunk in isolation is bit-identical to
// enhancing the same slices inside the whole scan.
//
// The endpoint deliberately bypasses the scan queue: chunks are small,
// latency-critical, and retried/hedged by the gateway, so admission is a
// simple concurrency bound (429 + Retry-After when EnhanceConcurrency
// chunks are already in flight) and drain is an immediate 503.
func (s *Server) handleEnhance(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if sc, ok := obs.ParseTraceparent(r.Header.Get("Traceparent")); ok {
		ctx = obs.ContextWithRemote(ctx, sc)
	}
	ctx, sp := obs.StartCtx(ctx, "serve/enhance-chunk")
	defer sp.End()
	if tp := sp.Traceparent(); tp != "" {
		w.Header().Set("Traceparent", tp)
	}

	if s.Draining() {
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		return
	}
	var req ScanRequest
	LimitBody(w, r, s.cfg.MaxVoxels)
	body, err := ReadScan(r.Body, &req)
	if err != nil {
		httpError(w, BodyErrorStatus(err), "bad json: %v", err)
		return
	}
	body.Release()
	if code, err := req.CheckDims(s.cfg.MaxVoxels); err != nil {
		httpError(w, code, "%v", err)
		return
	}

	if n := s.enhInflight.Add(1); n > int64(s.cfg.EnhanceConcurrency) {
		s.enhInflight.Add(-1)
		enhanceChunkRejected.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "chunk concurrency limit reached (%d)", s.cfg.EnhanceConcurrency)
		return
	}
	defer s.enhInflight.Add(-1)
	defer func() {
		if rec := recover(); rec != nil {
			httpError(w, http.StatusInternalServerError, "enhance panic: %v", rec)
		}
	}()

	start := time.Now()
	sp.SetAttr("slices", req.D)
	in := &volume.Volume{D: req.D, H: req.H, W: req.W, Data: req.Data}
	out, recycle := s.enhanceChunk(ctx, in)

	enhanceChunkSeconds.Observe(time.Since(start).Seconds())
	enhanceChunksTotal.Inc()
	writeScan(w, &ScanRequest{D: out.D, H: out.H, W: out.W, Data: out.Data})
	if recycle {
		s.cfg.Pipeline.RecycleVolume(out)
	}
}

// enhanceChunk picks the enhancement backend for one chunk, in the same
// precedence order the scan path uses: the Enhance test seam, the
// micro-batcher (chunks from concurrent scatters share batches exactly
// like concurrent scans do), the pooled EnhanceInto path, or — with no
// pipeline at all (Process-stub replicas) — an identity echo. recycle
// reports whether out came from the pipeline's volume pool and must be
// recycled after the response is written.
func (s *Server) enhanceChunk(ctx context.Context, in *volume.Volume) (out *volume.Volume, recycle bool) {
	switch {
	case s.cfg.Enhance != nil:
		return s.cfg.Enhance(in), false
	case s.batcher != nil:
		mem := s.enhArenas.Get().(*memplan.Arena)
		out = s.enhanceVolume(ctx, mem, in)
		s.enhArenas.Put(mem)
		return out, out != in
	case s.cfg.Pipeline != nil:
		out = s.cfg.Pipeline.GetVolume(in.D, in.H, in.W)
		s.cfg.Pipeline.EnhanceInto(ctx, in, out)
		return out, true
	default:
		return in, false
	}
}
