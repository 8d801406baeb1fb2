package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"computecovid19/internal/core"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/obs"
	"computecovid19/internal/tensor"
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
// handler → queue → worker → enhance, with the enhance span linked from
// a batch trace that descends through ddnet/forward into the selected
// kernel rung.
func TestRequestTraceEndToEnd(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()

	p := testPipeline(t, true, 21)
	cases := testCohort(t, 1, 23)
	s, ts := startServer(t, Config{
		Pipeline: p, Workers: 1, QueueDepth: 8, BatchSize: 4,
		BatchTimeout: time.Millisecond, CacheSize: -1,
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
	// queue and worker down into the diagnostic pipeline stages.
	wantEdges := []string{
		"core/classify<-core/diagnose",
		"core/diagnose<-serve/process",
		"core/segment<-core/diagnose",
		"serve/enhance<-serve/process",
		"serve/http<-serve/request",
		"serve/process<-serve/request",
		"serve/queue<-serve/request",
		"serve/request<-inbound",
	}
	var gotEdges []string
	var enhance, request obs.SpanRecord
	for _, r := range recs {
		if r.Trace != inbound.Trace {
			continue
		}
		parent := "inbound"
		if r.Parent != inbound.Span {
			parent = byID[r.Parent].Name
		}
		gotEdges = append(gotEdges, r.Name+"<-"+parent)
		switch r.Name {
		case "serve/enhance":
			enhance = r
		case "serve/request":
			request = r
		}
	}
	sort.Strings(gotEdges)
	if strings.Join(gotEdges, "\n") != strings.Join(wantEdges, "\n") {
		t.Fatalf("request trace tree:\n%s\nwant:\n%s",
			strings.Join(gotEdges, "\n"), strings.Join(wantEdges, "\n"))
	}
	if request.ID != echoed.Span {
		t.Fatal("response traceparent must name the serve/request span")
	}

	// The flight recorder retained the complete request trace.
	ft, ok := obs.FlightTraceByID(inbound.Trace)
	if !ok {
		t.Fatal("request trace missing from flight recorder")
	}
	if ft.Root != "serve/request" || len(ft.Spans) != len(wantEdges) {
		t.Fatalf("flight trace root=%q spans=%d, want serve/request with %d spans",
			ft.Root, len(ft.Spans), len(wantEdges))
	}

	// Follow the batch link: some enhance batch must link our enhance
	// span, and its own trace must descend through the DDnet forward
	// into the selected kernel rung.
	linked := false
	for _, r := range recs {
		if r.Name != "serve/enhance_batch" {
			continue
		}
		for _, l := range r.Links {
			if l.Trace == inbound.Trace && l.Span == enhance.ID {
				linked = true
			}
		}
		if !linked {
			continue
		}
		// The batch's forward picked its parallel axis: one forward span
		// for the kernel split, one per slice for the slice split. Each
		// forward span holds one rung span carrying the rung and the
		// planner's choice.
		forwards := map[obs.SpanID]bool{}
		var rungs []obs.SpanRecord
		for _, br := range recs {
			if br.Trace != r.Trace {
				continue
			}
			switch br.Name {
			case "ddnet/forward":
				if br.Parent == r.ID {
					forwards[br.ID] = true
				}
			case "kernels/rung":
				rungs = append(rungs, br)
			}
		}
		if len(forwards) == 0 {
			t.Fatal("batch trace missing ddnet/forward under the batch span")
		}
		if len(rungs) != len(forwards) {
			t.Fatalf("batch trace has %d kernels/rung spans for %d forwards", len(rungs), len(forwards))
		}
		for _, rung := range rungs {
			if !forwards[rung.Parent] {
				t.Fatal("batch trace missing kernels/rung under ddnet/forward")
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
			if attrs["split"] == "kernels" && len(forwards) != 1 {
				t.Fatalf("a kernel-split batch ran %d forwards, want 1", len(forwards))
			}
		}
		break
	}
	if !linked {
		t.Fatal("no enhance batch links the request's enhance span")
	}
}

// TestBatcherLinksManyRequestTraces drives the micro-batcher directly:
// slices from N distinct request traces filling one batch must produce
// one batch span carrying N links, one per request trace.
func TestBatcherLinksManyRequestTraces(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()

	const n = 4
	rng := rand.New(rand.NewSource(31))
	b := newBatcher(ddnet.New(rng, ddnet.TinyConfig()), n, time.Second)
	go b.run()

	spans := make([]*obs.Span, n)
	outs := make([]chan *tensor.Tensor, n)
	for i := range spans {
		spans[i] = obs.Start(fmt.Sprintf("request-%d", i))
		img := tensor.New(32, 32)
		for j := range img.Data {
			img.Data[j] = rng.Float32()
		}
		outs[i] = b.submit(img, spans[i].Context())
	}
	for i, out := range outs {
		if enh := <-out; enh == nil {
			t.Fatalf("slice %d lost", i)
		}
		spans[i].End()
	}
	b.stop()

	recs, _ := obs.TraceRecords()
	var batch obs.SpanRecord
	batches := 0
	for _, r := range recs {
		if r.Name == "serve/enhance_batch" {
			batch = r
			batches++
		}
	}
	if batches != 1 {
		t.Fatalf("got %d batch spans, want 1 (size %d fill)", batches, n)
	}
	if len(batch.Links) != n {
		t.Fatalf("batch links %d traces, want %d", len(batch.Links), n)
	}
	want := make(map[obs.SpanContext]bool, n)
	for _, sp := range spans {
		want[sp.Context()] = true
	}
	for _, l := range batch.Links {
		if !want[l] {
			t.Fatalf("batch links unknown span %+v", l)
		}
		delete(want, l)
	}
	for _, sp := range spans {
		if sp.TraceID() == batch.Trace {
			t.Fatal("the batch span must root its own trace, not join a request's")
		}
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
