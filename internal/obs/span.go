package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values should be small
// scalars or short strings; they are carried verbatim into the Chrome
// trace "args" object.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed region of execution inside a trace. A nil *Span is
// the disabled sink: every method no-ops, so call sites need no enabled
// checks.
type Span struct {
	name   string
	start  time.Time
	tid    int64 // goroutine id at creation — the Chrome-trace track
	trace  TraceID
	id     SpanID
	parent SpanID
	attrs  []Attr
	links  []SpanContext
}

// Start begins a root span in a fresh trace. It returns nil when span
// collection is disabled — the nil-sink fast path, one atomic load.
func Start(name string) *Span {
	if !enabled.Load() {
		return nil
	}
	return newSpan(name, newTraceID(), SpanID{})
}

func newSpan(name string, trace TraceID, parent SpanID) *Span {
	sp := &Span{
		name:   name,
		start:  time.Now(),
		tid:    goroutineID(),
		trace:  trace,
		id:     newSpanID(),
		parent: parent,
	}
	flight.open(trace)
	return sp
}

// Child begins a span nested under s, in the same trace. On a nil
// receiver it returns nil, propagating the disabled sink down the call
// tree.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return newSpan(name, s.trace, s.id)
}

// ctxKey keys the active span in a context.Context.
type ctxKey struct{}

// StartCtx begins a span nested under the context's active span — or
// continuing an inbound identity installed by ContextWithRemote, or as
// the root of a fresh trace — and returns a derived context carrying it.
// When collection is disabled the input context is returned unchanged.
func StartCtx(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	var sp *Span
	if parent, ok := ctx.Value(ctxKey{}).(*Span); ok && parent != nil {
		sp = parent.Child(name)
	} else if remote, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
		sp = newSpan(name, remote.Trace, remote.Span)
	} else {
		sp = newSpan(name, newTraceID(), SpanID{})
	}
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// FromContext returns the context's active span, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// ContextWithSpan returns a context carrying sp as the active span —
// the detach primitive for work that outlives its originating request
// context (a queued job keeps its trace without inheriting the HTTP
// request's cancellation).
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// Context returns the span's propagatable identity (zero when s is the
// disabled sink).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id}
}

// TraceID returns the span's trace id (zero when disabled).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// SpanID returns the span's own id (zero when disabled).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Traceparent renders the span's identity as a traceparent header value,
// or "" when disabled.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return s.Context().Traceparent()
}

// SetAttr attaches a key/value annotation.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// Link records a causal reference to a span in another trace — the
// batch span links every request span it serves, and the Chrome
// exporter renders the links as flow arrows.
func (s *Span) Link(sc SpanContext) {
	if s == nil || sc.IsZero() {
		return
	}
	s.links = append(s.links, sc)
}

// End closes the span and commits it to the trace buffer and the flight
// recorder.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	r := SpanRecord{
		Name:   s.name,
		TID:    s.tid,
		Trace:  s.trace,
		ID:     s.id,
		Parent: s.parent,
		Start:  s.start.Sub(traceEpoch()),
		Dur:    now.Sub(s.start),
		Attrs:  s.attrs,
		Links:  s.links,
	}
	addRecord(r)
	flight.close(r)
}

// SpanRecord is one completed span as retained by the trace buffer.
// Start is relative to the trace epoch (the first Enable call). Parent
// is zero for root spans; TID is the goroutine the span started on.
type SpanRecord struct {
	Name   string        `json:"name"`
	TID    int64         `json:"tid"`
	Trace  TraceID       `json:"trace_id"`
	ID     SpanID        `json:"span_id"`
	Parent SpanID        `json:"parent_id"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Links  []SpanContext `json:"links,omitempty"`
}

// maxTraceRecords bounds trace-buffer memory; ~256k spans ≈ tens of MB.
// Overflowing spans are counted, not retained.
const maxTraceRecords = 1 << 18

var trace struct {
	mu      sync.Mutex
	recs    []SpanRecord
	dropped uint64
}

func addRecord(r SpanRecord) {
	trace.mu.Lock()
	if len(trace.recs) >= maxTraceRecords {
		trace.dropped++
	} else {
		trace.recs = append(trace.recs, r)
	}
	trace.mu.Unlock()
}

func resetTrace() {
	trace.mu.Lock()
	trace.recs = nil
	trace.dropped = 0
	trace.mu.Unlock()
}

// TraceRecords returns a snapshot of the completed spans and the count
// of spans dropped to the buffer cap.
func TraceRecords() ([]SpanRecord, uint64) {
	trace.mu.Lock()
	defer trace.mu.Unlock()
	return append([]SpanRecord(nil), trace.recs...), trace.dropped
}

// SpanStat aggregates the completed spans of one name.
type SpanStat struct {
	Count        int     `json:"count"`
	TotalSeconds float64 `json:"total_seconds"`
	MinSeconds   float64 `json:"min_seconds"`
	MaxSeconds   float64 `json:"max_seconds"`
}

// SpanStats folds the trace buffer into per-name statistics — the
// digest the text and JSON exporters print.
func SpanStats() map[string]SpanStat {
	recs, _ := TraceRecords()
	stats := make(map[string]SpanStat)
	for _, r := range recs {
		s := stats[r.Name]
		sec := r.Dur.Seconds()
		if s.Count == 0 || sec < s.MinSeconds {
			s.MinSeconds = sec
		}
		if sec > s.MaxSeconds {
			s.MaxSeconds = sec
		}
		s.Count++
		s.TotalSeconds += sec
		stats[r.Name] = s
	}
	return stats
}
