package serve

import (
	"context"
	"net/http"
	"time"

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
	out, pooled := s.enhance(ctx, &volume.Volume{D: req.D, H: req.H, W: req.W, Data: req.Data})

	enhanceChunkSeconds.Observe(time.Since(start).Seconds())
	enhanceChunksTotal.Inc()
	writeScan(w, &ScanRequest{D: out.D, H: out.H, W: out.W, Data: out.Data})
	if pooled {
		s.cfg.Pipeline.RecycleVolume(out)
	}
}

// enhance is the one enhancement path of the server, shared by the scan
// worker and POST /v1/enhance: the Enhance seam when set, else
// Pipeline.EnhanceInto into a volume from the pipeline's pool — the code
// core runs for direct callers. With no pipeline or no enhancer the
// input passes through unchanged, as core.Pipeline.Enhance does. pooled
// reports whether out came from the pipeline's pool; the caller recycles
// it then, once out is consumed.
func (s *Server) enhance(ctx context.Context, v *volume.Volume) (out *volume.Volume, pooled bool) {
	p := s.cfg.Pipeline
	switch {
	case s.cfg.Enhance != nil:
		return s.cfg.Enhance(v), false
	case p == nil || p.Enhancer == nil:
		return v, false
	}
	out = p.GetVolume(v.D, v.H, v.W)
	p.EnhanceInto(ctx, v, out)
	return out, true
}
