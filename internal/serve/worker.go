package serve

import (
	"context"
	"fmt"
	"time"

	"computecovid19/internal/ctsim"
	"computecovid19/internal/memplan"
	"computecovid19/internal/obs"
	"computecovid19/internal/tensor"
	"computecovid19/internal/volume"
)

// worker is one replica loop: it pulls admitted jobs off the queue and
// runs the diagnostic pipeline on them. All workers share the warm
// pipeline's weights (read-only after Pipeline.Warm); enhancement routes
// through the micro-batcher, segmentation + classification run in the
// worker itself via core.Pipeline.ClassifyCtx.
func (s *Server) worker() {
	defer s.wg.Done()
	// Each worker stages its normalized slices from a private arena, so
	// workers never contend on pooled memory; steady-state scans of one
	// geometry circulate the same buffers between the worker and the
	// batcher without touching the heap.
	mem := memplan.New()
	for j := range s.queue {
		queueDepth.Add(-1)
		s.process(j, mem)
	}
}

func (s *Server) process(j *job, mem *memplan.Arena) {
	// The queue span ends at dequeue: its duration is the admission
	// wait. The process span covers this worker's share of the request.
	j.qspan.End()
	// The store drops the job's volume and trace references when it
	// turns terminal; the worker keeps its own for the steps after that.
	vol, root, ctx := j.vol, j.span, j.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartCtx(ctx, "serve/process")
	s.store.setRunning(j)

	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		deadlinesTotal.Inc()
		s.failJob(ctx, j, root, sp, "deadline exceeded before processing began", "deadline")
		return
	}
	defer func() {
		if r := recover(); r != nil {
			s.failJob(ctx, j, root, sp, fmt.Sprintf("pipeline panic: %v", r), "panic")
		}
	}()

	var res ScanResult
	if s.cfg.Process != nil {
		r := s.cfg.Process(vol)
		res = ScanResult{Probability: r.Probability, Positive: r.Positive}
	} else {
		enhanced := vol
		if !j.preEnhanced {
			enhanced = s.enhanceVolume(ctx, mem, vol)
		}
		r := s.cfg.Pipeline.ClassifyCtx(ctx, enhanced)
		res = ScanResult{Probability: r.Probability, Positive: r.Positive}
		// The lung mask and (when enhancement ran) the enhanced volume
		// are this worker's to recycle. vol is the client's payload —
		// never pooled — so the no-enhancer and cache-hit paths stay
		// copy-safe.
		s.cfg.Pipeline.RecycleResult(r)
		if enhanced != vol {
			s.cfg.Pipeline.RecycleVolume(enhanced)
		}
	}

	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		deadlinesTotal.Inc()
		s.failJob(ctx, j, root, sp, "deadline exceeded during processing", "deadline")
		return
	}
	s.cache.put(j.key, res)
	s.store.finish(j, res)
	requestSeconds.Observe(time.Since(j.submitted).Seconds())
	s.endJobTrace(j, root, sp, false, "")
}

// failJob records a terminal failure: store state, a trace-correlated
// log line, the SLO error, and (for deadline/panic failures) a
// flight-recorder dump of the just-completed trace.
func (s *Server) failJob(ctx context.Context, j *job, root, sp *obs.Span, msg, reason string) {
	s.store.fail(j, msg)
	obs.Logger(ctx).Error("scan failed", "job", j.id, "reason", reason, "err", msg)
	s.endJobTrace(j, root, sp, true, reason)
}

// endJobTrace closes the request's remaining spans — the process span,
// then the request root LAST, so the flight recorder sees the trace
// complete exactly once — and feeds the SLO tracker.
func (s *Server) endJobTrace(j *job, root, sp *obs.Span, failed bool, reason string) {
	sp.End()
	root.End()
	s.slo.Observe(time.Since(j.submitted), failed)
	if failed && s.cfg.FlightDir != "" {
		obs.DumpFlightTrace(s.cfg.FlightDir, root.TraceID(), reason)
	}
}

// enhanceVolume runs Enhancement AI over an HU volume through the
// micro-batcher: all D slices are submitted up front (so one scan can
// fill a batch by itself) and collected in order. Every slice carries
// the scan's enhance-span identity, which the batch span links — the
// fan-in edge connecting N request traces to one batch trace. Input
// slices are staged from the worker arena (ownership moves to the
// batcher at submit), enhanced slices come back from the batcher arena
// and are released here after the copy-out, and the output volume comes
// from the pipeline's recycle pool. Without an enhancer the input
// volume passes through unchanged, matching core.Pipeline.Enhance
// semantics.
func (s *Server) enhanceVolume(ctx context.Context, mem *memplan.Arena, v *volume.Volume) *volume.Volume {
	if s.cfg.Enhance != nil {
		_, esp := obs.StartCtx(ctx, "serve/enhance")
		defer esp.End()
		esp.SetAttr("slices", v.D)
		return s.cfg.Enhance(v)
	}
	if s.batcher == nil {
		return v
	}
	_, esp := obs.StartCtx(ctx, "serve/enhance")
	defer esp.End()
	esp.SetAttr("slices", v.D)
	sc := esp.Context()
	p := s.cfg.Pipeline
	outs := make([]chan *tensor.Tensor, v.D)
	for z := 0; z < v.D; z++ {
		img := mem.Get(v.H, v.W)
		sl := v.Slice(z)
		for i, hu := range sl {
			img.Data[i] = float32(ctsim.NormalizeHU(float64(hu), p.WindowLo, p.WindowHi))
		}
		outs[z] = s.batcher.submit(img, sc)
	}
	out := p.GetVolume(v.D, v.H, v.W)
	for z := 0; z < v.D; z++ {
		enh := <-outs[z]
		dst := out.Slice(z)
		for i, val := range enh.Data {
			dst[i] = float32(ctsim.DenormalizeHU(float64(val), p.WindowLo, p.WindowHi))
		}
		mem.Release(enh)
	}
	return out
}
