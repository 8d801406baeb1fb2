package serve

import (
	"context"
	"fmt"
	"time"

	"computecovid19/internal/obs"
)

// worker is one replica loop: it pulls admitted jobs off the queue and
// runs the diagnostic pipeline on them. All workers share the warm
// pipeline's weights (read-only after Pipeline.Warm); each runs its
// scan's enhancement (see enhance) and then segmentation +
// classification via core.Pipeline.ClassifyCtx, so Workers is the
// number of scans in flight through the pipeline at once.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		queueDepth.Add(-1)
		s.process(j)
	}
}

func (s *Server) process(j *job) {
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
		enhanced, pooled := vol, false
		if !j.preEnhanced {
			enhanced, pooled = s.enhance(ctx, vol)
		}
		r := s.cfg.Pipeline.ClassifyCtx(ctx, enhanced)
		res = ScanResult{Probability: r.Probability, Positive: r.Positive}
		// The lung mask and a pooled enhanced volume are this worker's
		// to recycle. vol is the client's payload — never pooled — so
		// the no-enhancer and pre-enhanced paths stay copy-safe.
		s.cfg.Pipeline.RecycleResult(r)
		if pooled {
			s.cfg.Pipeline.RecycleVolume(enhanced)
		}
	}

	if !j.deadline.IsZero() && time.Now().After(j.deadline) {
		deadlinesTotal.Inc()
		s.failJob(ctx, j, root, sp, "deadline exceeded during processing", "deadline")
		return
	}
	s.cache.put(j.key, res)
	requestSeconds.Observe(time.Since(j.submitted).Seconds())
	s.endJobTrace(j, root, sp, false, "")
	s.store.finish(j, res)
}

// failJob records a terminal failure: a trace-correlated log line, the
// SLO error, (for deadline/panic failures) a flight-recorder dump of
// the just-completed trace, and last the store state.
func (s *Server) failJob(ctx context.Context, j *job, root, sp *obs.Span, msg, reason string) {
	obs.Logger(ctx).Error("scan failed", "job", j.id, "reason", reason, "err", msg)
	s.endJobTrace(j, root, sp, true, reason)
	s.store.fail(j, msg)
}

// endJobTrace closes the request's remaining spans — the process span,
// then the request root LAST, so the flight recorder sees the trace
// complete exactly once — and feeds the SLO tracker. It runs before
// the job turns terminal, so a client that sees the result also sees
// the whole trace.
func (s *Server) endJobTrace(j *job, root, sp *obs.Span, failed bool, reason string) {
	sp.End()
	root.End()
	s.slo.Observe(time.Since(j.submitted), failed)
	if failed && s.cfg.FlightDir != "" {
		obs.DumpFlightTrace(s.cfg.FlightDir, root.TraceID(), reason)
	}
}
