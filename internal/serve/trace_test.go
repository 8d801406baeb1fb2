package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"computecovid19/internal/core"
	"computecovid19/internal/obs"
	"computecovid19/internal/volume"
)

// inboundSpanContext is a fixed remote identity playing the upstream
// caller (a gateway or test harness that already opened a trace).
func inboundSpanContext() obs.SpanContext {
	var sc obs.SpanContext
	for i := range sc.Trace {
		sc.Trace[i] = byte(0x10 + i)
	}
	for i := range sc.Span {
		sc.Span[i] = byte(0xb0 + i)
	}
	return sc
}

// recordsByID indexes a span snapshot for parent-chain walking.
func recordsByID(recs []obs.SpanRecord) map[obs.SpanID]obs.SpanRecord {
	m := make(map[obs.SpanID]obs.SpanRecord, len(recs))
	for _, r := range recs {
		m[r.ID] = r
	}
	return m
}

// TestRequestTraceEndToEnd is the golden-path trace test: one scan
// through the real pipeline must produce a single request trace —
// continued from the inbound traceparent — whose span tree runs
// handler → queue → worker → core/enhance, which descends through
// ddnet/forward into the selected kernel rung, and on into segmentation
// and classification.
func TestRequestTraceEndToEnd(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()

	p := testPipeline(t, true, 21)
	cases := testCohort(t, 1, 23)
	s, ts := startServer(t, Config{
		Pipeline: p, Workers: 1, QueueDepth: 8, CacheSize: -1,
	})

	inbound := inboundSpanContext()
	body := scanBody(t, cases[0].Volume)
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/scan", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Traceparent", inbound.Traceparent())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	decodeBody(t, resp, &view)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}

	// The response announces our span in the caller's trace.
	echoed, ok := obs.ParseTraceparent(resp.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("response traceparent unparseable: %q", resp.Header.Get("Traceparent"))
	}
	if echoed.Trace != inbound.Trace {
		t.Fatalf("server opened trace %s instead of continuing inbound %s", echoed.Trace, inbound.Trace)
	}
	if echoed.Span == inbound.Span {
		t.Fatal("server must mint its own span id, not echo the caller's")
	}

	if got := poll(t, ts, view.ID, 30*time.Second); got.State != StateDone {
		t.Fatalf("scan did not complete: %+v", got)
	}
	if err := s.Drain(drainCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}

	recs, dropped := obs.TraceRecords()
	if dropped != 0 {
		t.Fatalf("span buffer dropped %d records", dropped)
	}
	byID := recordsByID(recs)

	// Golden span tree of the request trace: every edge the scan must
	// traverse, as child←parent pairs — from the HTTP handler through
	// queue and worker down into the diagnostic pipeline stages and the
	// DDnet walk. Edges are collected as a set, because every slice
	// opens its own ddnet/forward subtree.
	wantEdges := []string{
		"core/classify<-core/diagnose",
		"core/diagnose<-serve/process",
		"core/enhance<-serve/process",
		"core/segment<-core/diagnose",
		"ddnet/dec0<-kernels/rung",
		"ddnet/dec1<-kernels/rung",
		"ddnet/enc0<-kernels/rung",
		"ddnet/enc1<-kernels/rung",
		"ddnet/forward<-core/enhance",
		"ddnet/stem<-kernels/rung",
		"kernels/rung<-ddnet/forward",
		"serve/http<-serve/request",
		"serve/process<-serve/request",
		"serve/queue<-serve/request",
		"serve/request<-inbound",
	}
	edgeSet := map[string]bool{}
	var request obs.SpanRecord
	var inTrace int
	forwards := map[obs.SpanID]bool{}
	var rungs []obs.SpanRecord
	for _, r := range recs {
		if r.Trace != inbound.Trace {
			continue
		}
		inTrace++
		parent := "inbound"
		if r.Parent != inbound.Span {
			parent = byID[r.Parent].Name
		}
		edgeSet[r.Name+"<-"+parent] = true
		switch r.Name {
		case "serve/request":
			request = r
		case "ddnet/forward":
			forwards[r.ID] = true
		case "kernels/rung":
			rungs = append(rungs, r)
		}
	}
	var gotEdges []string
	for e := range edgeSet {
		gotEdges = append(gotEdges, e)
	}
	sort.Strings(gotEdges)
	if strings.Join(gotEdges, "\n") != strings.Join(wantEdges, "\n") {
		t.Fatalf("request trace tree:\n%s\nwant:\n%s",
			strings.Join(gotEdges, "\n"), strings.Join(wantEdges, "\n"))
	}
	if request.ID != echoed.Span {
		t.Fatal("response traceparent must name the serve/request span")
	}

	// Every forward is one slice, whichever parallel axis it picked, and
	// holds one rung span carrying the rung and the planner's choice.
	if d := cases[0].Volume.D; len(forwards) != d {
		t.Fatalf("request trace has %d ddnet/forward spans for %d slices", len(forwards), d)
	}
	if len(rungs) != len(forwards) {
		t.Fatalf("request trace has %d kernels/rung spans for %d forwards", len(rungs), len(forwards))
	}
	for _, rung := range rungs {
		if !forwards[rung.Parent] {
			t.Fatal("kernels/rung span outside a ddnet/forward")
		}
		attrs := map[string]string{}
		for _, a := range rung.Attrs {
			attrs[a.Key] = fmt.Sprint(a.Value)
		}
		if attrs["rung"] == "" {
			t.Fatal("kernels/rung span must carry the selected rung name")
		}
		if want := map[bool]string{true: "kernels", false: "slices"}[attrs["groups"] == "1"]; attrs["split"] != want || attrs["kernel_workers"] == "" {
			t.Fatalf("kernels/rung span attributes %v: want split=%s with groups and kernel_workers", attrs, want)
		}
	}

	// The flight recorder retained the complete request trace.
	ft, ok := obs.FlightTraceByID(inbound.Trace)
	if !ok {
		t.Fatal("request trace missing from flight recorder")
	}
	if ft.Root != "serve/request" || len(ft.Spans) != inTrace {
		t.Fatalf("flight trace root=%q spans=%d, want serve/request with %d spans",
			ft.Root, len(ft.Spans), inTrace)
	}
}

// TestDeadlineExceededDumpsFlightTrace is the flight-recorder
// integration test: a request failing on its deadline must leave a
// dump file named after its trace id, holding the complete trace.
func TestDeadlineExceededDumpsFlightTrace(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	// The deadline failure logs at ERROR by design; keep test output clean.
	prev := obs.SetLogWriter(io.Discard, slog.LevelError+4)
	defer obs.SetLogger(prev)

	flightDir := t.TempDir()
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		Workers: 1, QueueDepth: 4, CacheSize: -1, FlightDir: flightDir,
		Process: func(v *volume.Volume) core.Result {
			started <- struct{}{}
			<-release
			return core.Result{Probability: 0.5}
		},
	})
	vols := uniqueVolumes(2)

	_, viewA := submit(t, ts, vols[0], 0)
	<-started
	respB, viewB := submit(t, ts, vols[1], 1) // 1 ms deadline, stuck in queue
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("deadline submit: %d", respB.StatusCode)
	}
	traceB, ok := obs.ParseTraceparent(respB.Header.Get("Traceparent"))
	if !ok {
		t.Fatalf("submit response traceparent unparseable: %q", respB.Header.Get("Traceparent"))
	}
	time.Sleep(10 * time.Millisecond)
	close(release)

	if got := poll(t, ts, viewB.ID, 5*time.Second); got.State != StateFailed {
		t.Fatalf("deadlined job: %+v", got)
	}
	if got := poll(t, ts, viewA.ID, 5*time.Second); got.State != StateDone {
		t.Fatalf("unbounded job: %+v", got)
	}

	// The dump is written right after the job reaches its terminal
	// state; give the worker a moment to finish it.
	dumpPath := filepath.Join(flightDir, "flight-"+traceB.Trace.String()+".json")
	var data []byte
	for wait := time.Now().Add(5 * time.Second); ; {
		var err error
		if data, err = os.ReadFile(dumpPath); err == nil {
			break
		}
		if time.Now().After(wait) {
			entries, _ := os.ReadDir(flightDir)
			t.Fatalf("no flight dump at %s (dir has %d entries)", dumpPath, len(entries))
		}
		time.Sleep(2 * time.Millisecond)
	}
	dump := string(data)
	if !strings.Contains(dump, `"reason": "deadline"`) {
		t.Fatalf("dump reason wrong:\n%s", dump)
	}
	for _, want := range []string{traceB.Trace.String(), "serve/request", "serve/queue", "serve/process"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("flight dump missing %q:\n%s", want, dump)
		}
	}
	// The healthy job must not have been dumped.
	entries, err := os.ReadDir(flightDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("flight dir has %d dumps, want only the deadlined request", len(entries))
	}

	if err := s.Drain(drainCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestDisabledTracingEmitsNoTraceparent pins the opt-in contract: with
// span collection off, responses carry no trace headers and nothing is
// recorded.
func TestDisabledTracingEmitsNoTraceparent(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	s, ts := startServer(t, Config{
		Workers: 1, QueueDepth: 2, CacheSize: -1,
		Process: func(v *volume.Volume) core.Result { return core.Result{Probability: 0.5} },
	})
	resp, view := submit(t, ts, uniqueVolumes(1)[0], 0)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if tp := resp.Header.Get("Traceparent"); tp != "" {
		t.Fatalf("disabled tracing must not emit traceparent, got %q", tp)
	}
	poll(t, ts, view.ID, 5*time.Second)
	if recs, _ := obs.TraceRecords(); len(recs) != 0 {
		t.Fatalf("disabled tracing recorded %d spans", len(recs))
	}
	if err := s.Drain(drainCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsExposeBuildInfoAndSLO pins the /metrics additions: the
// constant build_info gauge with identity labels and the SLO budget
// gauges recomputed per scrape.
func TestMetricsExposeBuildInfoAndSLO(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	s, ts := startServer(t, Config{
		Workers: 1, QueueDepth: 2, CacheSize: -1,
		Process: func(v *volume.Volume) core.Result { return core.Result{Probability: 0.5} },
	})
	_, view := submit(t, ts, uniqueVolumes(1)[0], 0)
	poll(t, ts, view.ID, 5*time.Second)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	out := buf.String()
	for _, want := range []string{
		`build_info{`, `go_version="go`,
		`slo_latency_budget_remaining{slo="scan"} 1`,
		`slo_error_budget_remaining{slo="scan"} 1`,
		`slo_requests_good_total{slo="scan"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, out)
		}
	}
	if err := s.Drain(drainCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// scanBody marshals a volume into the POST /v1/scan JSON body.
func scanBody(t *testing.T, v *volume.Volume) string {
	t.Helper()
	body, err := json.Marshal(ScanRequest{D: v.D, H: v.H, W: v.W, Data: v.Data})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// decodeBody decodes and closes an HTTP response body.
func decodeBody(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
