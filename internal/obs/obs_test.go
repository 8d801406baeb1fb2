package obs_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"computecovid19/internal/obs"
	"computecovid19/internal/parallel"
)

// TestRegistryConcurrentExactTotals hammers one counter, gauge and
// histogram from parallel.For workers and asserts exact totals — the
// registry's atomics must lose no increments (run under -race via
// `make race`).
func TestRegistryConcurrentExactTotals(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("test_events_total")
	g := r.Gauge("test_accumulator")
	h := r.Histogram("test_latency_seconds", []float64{0.5, 1.5, 2.5})

	const n = 20000
	parallel.ForEach(n, 8, func(i int) {
		c.Inc()
		g.Add(1)
		h.Observe(float64(i % 3)) // 0, 1, 2 → buckets le=0.5, 1.5, 2.5
	})

	if got := c.Value(); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	if got := g.Value(); got != n {
		t.Fatalf("gauge = %v, want %d", got, n)
	}
	if got := h.Count(); got != n {
		t.Fatalf("histogram count = %d, want %d", got, n)
	}
	// Serial reference for the sum and the per-bucket counts:
	// i%3 == 0 lands in le=0.5, == 1 in le=1.5, == 2 in le=2.5.
	var wantSum float64
	var perMod [3]uint64
	for i := 0; i < n; i++ {
		wantSum += float64(i % 3)
		perMod[i%3]++
	}
	if got := h.Sum(); got != wantSum {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
	cum := h.Cumulative()
	want := []uint64{perMod[0], perMod[0] + perMod[1], n, n} // +Inf bucket empty
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cumulative bucket %d = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
}

func TestCounterFromDefaultRegistryIsShared(t *testing.T) {
	defer obs.Reset()
	a := obs.GetCounter("test_shared_total")
	b := obs.GetCounter("test_shared_total")
	a.Add(3)
	b.Add(4)
	if a.Value() != 7 || b.Value() != 7 {
		t.Fatalf("handles not shared: %d vs %d", a.Value(), b.Value())
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("metric_x")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic registering metric_x as a gauge")
		}
	}()
	r.Gauge("metric_x")
}

func TestNilSinkMethodsAreSafe(t *testing.T) {
	var sp *obs.Span
	sp.SetAttr("k", 1)
	sp.Child("child").End()
	sp.End()
	var c *obs.Counter
	c.Inc()
	var g *obs.Gauge
	g.Set(3)
	var h *obs.Histogram
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil metric sinks must read zero")
	}
}

func TestSpansDisabledByDefaultAndRecordWhenEnabled(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	if sp := obs.Start("off"); sp != nil {
		t.Fatal("Start must return nil while disabled")
	}
	obs.Enable()
	sp := obs.Start("root")
	if sp == nil {
		t.Fatal("Start returned nil while enabled")
	}
	child := sp.Child("leaf")
	child.SetAttr("size", 32)
	child.End()
	sp.End()

	recs, dropped := obs.TraceRecords()
	if dropped != 0 {
		t.Fatalf("dropped = %d", dropped)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	// Children end first; both live on the parent's track.
	if recs[0].Name != "leaf" || recs[1].Name != "root" {
		t.Fatalf("record order: %q, %q", recs[0].Name, recs[1].Name)
	}
	if recs[0].TID != recs[1].TID {
		t.Fatal("child must inherit the parent's track id")
	}
	stats := obs.SpanStats()
	if stats["root"].Count != 1 || stats["leaf"].Count != 1 {
		t.Fatalf("span stats wrong: %+v", stats)
	}
}

func TestStartCtxNestsThroughContext(t *testing.T) {
	defer obs.Reset()
	obs.Enable()
	ctx, root := obs.StartCtx(context.Background(), "pipeline")
	ctx2, stage := obs.StartCtx(ctx, "enhance")
	if obs.FromContext(ctx2) != stage {
		t.Fatal("FromContext must return the innermost span")
	}
	stage.End()
	root.End()
	recs, _ := obs.TraceRecords()
	if len(recs) != 2 || recs[0].TID != recs[1].TID {
		t.Fatalf("context nesting must share a track: %+v", recs)
	}
}

func TestExpBucketsShape(t *testing.T) {
	b := obs.ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if diff := b[i]/want[i] - 1; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("bucket %d = %v, want %v", i, b[i], want[i])
		}
	}
}

func TestPrometheusOutputHasHistogramSeries(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram(`stage_seconds{stage="enhance"}`, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(5)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE stage_seconds histogram",
		`stage_seconds_bucket{stage="enhance",le="0.1"} 1`,
		`stage_seconds_bucket{stage="enhance",le="+Inf"} 2`,
		`stage_seconds_count{stage="enhance"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestHistogramQuantile checks the Prometheus-style interpolated
// quantile the straggler detector thresholds on.
func TestHistogramQuantile(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	// 100 observations uniform over (0, 4]: 25 per bucket up to 4.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	// Median falls in the (1,2] bucket, three quarters through it.
	if got := h.Quantile(0.5); math.Abs(got-2.0) > 0.5 {
		t.Fatalf("p50 = %v, want ≈ 2", got)
	}
	if p99, p50 := h.Quantile(0.99), h.Quantile(0.5); p99 <= p50 {
		t.Fatalf("p99 (%v) must exceed p50 (%v)", p99, p50)
	}
	// Observations past every finite bound land in +Inf; the quantile
	// degrades to the largest finite bound rather than inventing values.
	h2 := r.Histogram("q2", []float64{1})
	for i := 0; i < 10; i++ {
		h2.Observe(100)
	}
	if got := h2.Quantile(0.99); got != 1 {
		t.Fatalf("overflow-bucket quantile = %v, want largest finite bound 1", got)
	}
	// Clamped inputs.
	if h.Quantile(-1) > h.Quantile(2) {
		t.Fatal("quantile must be monotone after clamping q to [0,1]")
	}
	// A free-standing histogram (no registry) behaves identically.
	fs := obs.NewHistogram([]float64{1, 2})
	fs.Observe(1.5)
	if got := fs.Quantile(1); got <= 0 {
		t.Fatalf("free-standing histogram quantile = %v, want > 0", got)
	}
}
