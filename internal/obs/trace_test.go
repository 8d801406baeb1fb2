package obs_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"computecovid19/internal/obs"
)

func mkSpanContext() obs.SpanContext {
	var sc obs.SpanContext
	for i := range sc.Trace {
		sc.Trace[i] = byte(i + 1)
	}
	for i := range sc.Span {
		sc.Span[i] = byte(0xa0 + i)
	}
	return sc
}

func TestTraceparentRoundTrip(t *testing.T) {
	sc := mkSpanContext()
	tp := sc.Traceparent()
	if len(tp) != 55 || !strings.HasPrefix(tp, "00-") || !strings.HasSuffix(tp, "-01") {
		t.Fatalf("malformed traceparent: %q", tp)
	}
	got, ok := obs.ParseTraceparent(tp)
	if !ok || got != sc {
		t.Fatalf("round trip failed: %+v → %q → %+v (ok=%v)", sc, tp, got, ok)
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := mkSpanContext().Traceparent()
	cases := map[string]string{
		"empty":          "",
		"truncated":      valid[:54],
		"trailing":       valid + "x",
		"bad dash":       strings.Replace(valid, "-", "_", 1),
		"version ff":     "ff" + valid[2:],
		"non-hex trace":  valid[:3] + "zz" + valid[5:],
		"non-hex span":   valid[:36] + "zz" + valid[38:],
		"non-hex flags":  valid[:53] + "zz",
		"zero trace id":  "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span id":   "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"all whitespace": strings.Repeat(" ", 55),
		"uppercase":      "00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"upper trace":    "00-4bf92f3577b34da6a3ce929d0e0e473F-00f067aa0ba902b7-01",
		"upper span":     "00-4bf92f3577b34da6a3ce929d0e0e4736-00F067aa0ba902b7-01",
		"upper version":  "0A" + valid[2:],
		"upper flags":    valid[:53] + "0F",
		"version FF":     "FF" + valid[2:],
	}
	for name, in := range cases {
		if _, ok := obs.ParseTraceparent(in); ok {
			t.Errorf("%s: ParseTraceparent(%q) accepted, want reject", name, in)
		}
	}
}

func TestParseTraceparentForwardCompatible(t *testing.T) {
	// Unknown future versions and cleared sample flags still parse, per
	// the W3C forward-compatibility rules.
	sc := mkSpanContext()
	for _, tp := range []string{
		"01" + sc.Traceparent()[2:],
		strings.TrimSuffix(sc.Traceparent(), "01") + "00",
	} {
		got, ok := obs.ParseTraceparent(tp)
		if !ok || got != sc {
			t.Errorf("ParseTraceparent(%q) = %+v, %v; want %+v, true", tp, got, ok, sc)
		}
	}
}

func TestIDTextMarshalRoundTrip(t *testing.T) {
	sc := mkSpanContext()
	data, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Hex strings on the wire, not byte arrays.
	if !strings.Contains(string(data), sc.Trace.String()) ||
		!strings.Contains(string(data), sc.Span.String()) {
		t.Fatalf("JSON does not carry hex ids: %s", data)
	}
	var back obs.SpanContext
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != sc {
		t.Fatalf("JSON round trip: %+v != %+v", back, sc)
	}
}

func TestStartCtxContinuesRemoteTrace(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	remote := mkSpanContext()
	ctx := obs.ContextWithRemote(context.Background(), remote)
	_, sp := obs.StartCtx(ctx, "serve/request")
	if sp.TraceID() != remote.Trace {
		t.Fatalf("span trace = %s, want inbound %s", sp.TraceID(), remote.Trace)
	}
	sp.End()
	recs, _ := obs.TraceRecords()
	if len(recs) != 1 || recs[0].Parent != remote.Span {
		t.Fatalf("continued span must parent the remote span: %+v", recs)
	}
}

func TestContextWithRemoteZeroIsNoop(t *testing.T) {
	ctx := context.Background()
	if got := obs.ContextWithRemote(ctx, obs.SpanContext{}); got != ctx {
		t.Fatal("zero remote identity must not derive a new context")
	}
}

func TestStartCtxRootsFreshDistinctTraces(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	_, a := obs.StartCtx(context.Background(), "a")
	_, b := obs.StartCtx(context.Background(), "b")
	if a.TraceID().IsZero() || b.TraceID().IsZero() {
		t.Fatal("enabled root spans must carry trace ids")
	}
	if a.TraceID() == b.TraceID() || a.SpanID() == b.SpanID() {
		t.Fatal("independent roots must get distinct ids")
	}
	if tp := a.Traceparent(); tp != a.Context().Traceparent() {
		t.Fatalf("span traceparent mismatch: %q vs %q", tp, a.Context().Traceparent())
	}
	if sc, ok := obs.ParseTraceparent(a.Traceparent()); !ok || sc != a.Context() {
		t.Fatal("a span's traceparent must parse back to its own identity")
	}
	a.End()
	b.End()
}

func TestChildSharesTraceNewSpanID(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	ctx, root := obs.StartCtx(context.Background(), "root")
	_, child := obs.StartCtx(ctx, "child")
	if child.TraceID() != root.TraceID() {
		t.Fatal("child must stay in the parent's trace")
	}
	if child.SpanID() == root.SpanID() {
		t.Fatal("child must get its own span id")
	}
	child.End()
	root.End()
	recs, _ := obs.TraceRecords()
	if recs[0].Parent != root.SpanID() {
		t.Fatalf("child record parent = %s, want %s", recs[0].Parent, root.SpanID())
	}
}

func TestDisabledCtxPathIsInert(t *testing.T) {
	obs.Disable()
	ctx := context.Background()
	ctx2, sp := obs.StartCtx(ctx, "off")
	if ctx2 != ctx || sp != nil {
		t.Fatal("disabled StartCtx must return the input context and a nil span")
	}
	if obs.FromContext(ctx2) != nil {
		t.Fatal("no active span expected")
	}
	// The nil sink's identity accessors read zero.
	if !sp.TraceID().IsZero() || !sp.SpanID().IsZero() || sp.Traceparent() != "" || !sp.Context().IsZero() {
		t.Fatal("nil span identity must be zero")
	}
	if got := obs.ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("ContextWithSpan(nil) must be a no-op")
	}
}

// FuzzParseTraceparent: the parser runs on a header of every request, so
// no input may panic it, and whatever it accepts is a 55-byte W3C value
// whose non-zero ids render back to exactly the header's own lowercase
// hex digits.
func FuzzParseTraceparent(f *testing.F) {
	valid := mkSpanContext().Traceparent()
	for _, s := range []string{
		valid, "01" + valid[2:], valid[:53] + "00", strings.ToUpper(valid),
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"", valid[:54], valid + "x", "ff" + valid[2:],
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		strings.Repeat("-", 55), strings.Repeat("0", 55),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := obs.ParseTraceparent(s)
		if !ok {
			return
		}
		if len(s) != 55 || s[:2] == "ff" || sc.Trace.IsZero() || sc.Span.IsZero() {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid header as %+v", s, sc)
		}
		if s[3:35] != sc.Trace.String() || s[36:52] != sc.Span.String() || s != strings.ToLower(s) {
			t.Fatalf("ParseTraceparent(%q) = %s/%s, not the header's ids", s, sc.Trace, sc.Span)
		}
		if again, ok := obs.ParseTraceparent(sc.Traceparent()); !ok || again != sc {
			t.Fatalf("%q does not parse back to %+v", sc.Traceparent(), sc)
		}
	})
}
