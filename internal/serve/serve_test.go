package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"computecovid19/internal/classify"
	"computecovid19/internal/core"
	"computecovid19/internal/dataset"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/memplan"
	"computecovid19/internal/volume"
)

// testCohort builds tiny phantom volumes sized for SmallConfig.
func testCohort(t *testing.T, count int, seed int64) []dataset.Case {
	t.Helper()
	cfg := dataset.DefaultCohortConfig()
	cfg.Count = count
	cfg.Size = 32
	cfg.Depth = 8
	cfg.Seed = seed
	return dataset.BuildCohort(cfg)
}

func testPipeline(t *testing.T, withEnhancer bool, seed int64) *core.Pipeline {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var enh *ddnet.DDnet
	if withEnhancer {
		enh = ddnet.New(rng, ddnet.TinyConfig())
	}
	return core.NewPipeline(enh, classify.New(rng, classify.SmallConfig()))
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, v *volume.Volume, deadlineMS int) (*http.Response, JobView) {
	t.Helper()
	body, err := json.Marshal(ScanRequest{D: v.D, H: v.H, W: v.W, Data: v.Data, DeadlineMS: deadlineMS})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return resp, view
}

func poll(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(ts.URL + "/v1/scan/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			resp.Body.Close()
			t.Fatal(err)
		}
		resp.Body.Close()
		if view.State == StateDone || view.State == StateFailed {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("scan %s still %s after %v", id, view.State, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestEndToEnd runs the real pipeline — DDnet enhancement,
// segmentation, classification — behind the HTTP API on tiny phantom
// volumes: submit, poll, and check the diagnosis agrees with calling the
// pipeline directly.
func TestEndToEnd(t *testing.T) {
	p := testPipeline(t, true, 1)
	cases := testCohort(t, 2, 3)
	s, ts := startServer(t, Config{
		Pipeline: p, Workers: 2, QueueDepth: 8, CacheSize: -1,
	})

	for i, c := range cases {
		resp, view := submit(t, ts, c.Volume, 0)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("case %d: submit status %d", i, resp.StatusCode)
		}
		got := poll(t, ts, view.ID, 30*time.Second)
		if got.State != StateDone || got.Result == nil {
			t.Fatalf("case %d: %+v", i, got)
		}
		if got.Result.Probability < 0 || got.Result.Probability > 1 {
			t.Fatalf("case %d: probability %v", i, got.Result.Probability)
		}
		if got.Result.Positive != (got.Result.Probability >= p.Threshold) {
			t.Fatalf("case %d: positive flag inconsistent", i)
		}
		// The served result must match the offline pipeline exactly: the
		// served enhancement path is bit-identical to Diagnose.
		want := p.Diagnose(c.Volume)
		if got.Result.Probability != want.Probability {
			t.Fatalf("case %d: served %v != offline %v", i, got.Result.Probability, want.Probability)
		}
	}
	if err := s.Drain(drainCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestAllocsServeEnhance is the allocation gate on the server's one
// enhance path: a warm enhance of an 8×64×64 scan, followed by the
// recycle its caller does, allocates nothing on one proc or on two.
func TestAllocsServeEnhance(t *testing.T) {
	if memplan.RaceEnabled {
		t.Skip("sync.Pool drops objects on purpose under -race")
	}
	s, err := New(Config{Pipeline: testPipeline(t, true, 41)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	v := volume.New(8, 64, 64)
	for i := range v.Data {
		v.Data[i] = float32(rng.Float64()*1400 - 1000)
	}
	ctx := context.Background()
	cycle := func() {
		if out, pooled := s.enhance(ctx, v); pooled {
			s.cfg.Pipeline.RecycleVolume(out)
		}
	}
	for _, procs := range []int{1, 2} {
		if n := memplan.AllocsPerRun(procs, 10, cycle); n != 0 {
			t.Fatalf("warm enhance+recycle on %d procs allocates %v allocs/op, want 0", procs, n)
		}
	}
}

func drainCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

// TestQueueFullBackpressure pins the 429 path: one blocked worker, a
// queue of one, and a third submission must be rejected with
// Retry-After.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		Workers: 1, QueueDepth: 1, CacheSize: -1,
		Process: func(v *volume.Volume) core.Result {
			started <- struct{}{}
			<-release
			return core.Result{Probability: 0.5}
		},
	})
	vols := uniqueVolumes(3)

	respA, viewA := submit(t, ts, vols[0], 0)
	if respA.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", respA.StatusCode)
	}
	<-started // worker now busy with A
	respB, viewB := submit(t, ts, vols[1], 0)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit should queue: %d", respB.StatusCode)
	}
	respC, _ := submit(t, ts, vols[2], 0)
	if respC.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit should be rejected, got %d", respC.StatusCode)
	}
	if respC.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}

	close(release)
	for _, id := range []string{viewA.ID, viewB.ID} {
		if got := poll(t, ts, id, 5*time.Second); got.State != StateDone {
			t.Fatalf("job %s: %+v", id, got)
		}
	}
	if err := s.Drain(drainCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestDeadlineExceeded pins the deadline path: a job whose deadline
// expires while it waits behind a blocked worker fails instead of
// wasting pipeline time.
func TestDeadlineExceeded(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		Workers: 1, QueueDepth: 4, CacheSize: -1,
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
	time.Sleep(10 * time.Millisecond)
	close(release)

	if got := poll(t, ts, viewB.ID, 5*time.Second); got.State != StateFailed ||
		!strings.Contains(got.Error, "deadline exceeded") {
		t.Fatalf("deadlined job: %+v", got)
	}
	if got := poll(t, ts, viewA.ID, 5*time.Second); got.State != StateDone {
		t.Fatalf("unbounded job: %+v", got)
	}
	if err := s.Drain(drainCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestCacheHit pins the O(1) re-submission path: the second submission
// of an identical volume completes synchronously from the cache.
func TestCacheHit(t *testing.T) {
	p := testPipeline(t, false, 5)
	cases := testCohort(t, 1, 7)
	s, ts := startServer(t, Config{Pipeline: p, Workers: 1, QueueDepth: 4, CacheSize: 8})

	_, first := submit(t, ts, cases[0].Volume, 0)
	done := poll(t, ts, first.ID, 30*time.Second)
	if done.State != StateDone {
		t.Fatalf("first submission: %+v", done)
	}

	resp, second := submit(t, ts, cases[0].Volume, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cache hit should answer 200, got %d", resp.StatusCode)
	}
	if !second.Cached || second.State != StateDone || second.Result == nil {
		t.Fatalf("cache hit view: %+v", second)
	}
	if second.Result.Probability != done.Result.Probability {
		t.Fatalf("cached %v != computed %v", second.Result.Probability, done.Result.Probability)
	}
	if err := s.Drain(drainCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentLoadAndDrain is the acceptance hammer: 64+ in-flight
// scans from 32 goroutines against the real pipeline (enhancement
// included), zero dropped completions, and a clean drain —
// run under -race by make ci.
func TestConcurrentLoadAndDrain(t *testing.T) {
	p := testPipeline(t, true, 9)
	base := testCohort(t, 2, 11)
	const (
		clients  = 32
		requests = 64
	)
	s, ts := startServer(t, Config{
		Pipeline: p, Workers: 8, QueueDepth: requests, CacheSize: -1,
	})

	ids := make([]string, requests)
	var wg sync.WaitGroup
	var mu sync.Mutex
	rejected := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + int64(client)))
			for i := client; i < requests; i += clients {
				v := base[i%len(base)].Volume.Clone()
				v.Data[rng.Intn(len(v.Data))] += float32(rng.Float64()) // unique per request
				for {
					resp, view := submit(t, ts, v, 0)
					if resp.StatusCode == http.StatusTooManyRequests {
						mu.Lock()
						rejected++
						mu.Unlock()
						time.Sleep(5 * time.Millisecond)
						continue
					}
					if resp.StatusCode != http.StatusAccepted {
						t.Errorf("request %d: status %d", i, resp.StatusCode)
						return
					}
					ids[i] = view.ID
					break
				}
			}
		}(c)
	}
	wg.Wait()

	// Drain with everything still in flight: every accepted job must
	// finish.
	if err := s.Drain(drainCtx(t, 120*time.Second)); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, id := range ids {
		if id == "" {
			t.Fatalf("request %d was never admitted", i)
		}
		view, ok := s.store.viewByID(id)
		if !ok {
			t.Fatalf("job %s dropped from store", id)
		}
		if view.State != StateDone || view.Result == nil {
			t.Fatalf("job %s did not complete: %+v", id, view)
		}
	}
	counts := s.store.counts()
	if counts[StateDone] != requests {
		t.Fatalf("done=%d want %d (counts %v, rejected %d)", counts[StateDone], requests, counts, rejected)
	}

	// After drain: readiness off, new submissions refused.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d", resp.StatusCode)
	}
	late, _ := submit(t, ts, base[0].Volume, 0)
	if late.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain: %d", late.StatusCode)
	}
}

// TestHTTPValidationAndMetrics covers the 400/404/413 edges and the
// /metrics + /healthz endpoints.
func TestHTTPValidationAndMetrics(t *testing.T) {
	s, ts := startServer(t, Config{
		Workers: 1, QueueDepth: 2, MaxVoxels: 64, CacheSize: -1,
		Process: func(v *volume.Volume) core.Result { return core.Result{Probability: 0.1} },
	})

	for name, body := range map[string]string{
		"bad json":    "{",
		"zero dims":   `{"d":0,"h":4,"w":4,"data":[]}`,
		"length skew": `{"d":1,"h":2,"w":2,"data":[1,2,3]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/scan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
	}
	big := volume.New(2, 8, 8) // 128 voxels > MaxVoxels 64
	resp, _ := submit(t, ts, big, 0)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized volume: %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/scan/scan-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: %d", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(buf.String(), "serve_admitted_total") {
		t.Fatal("metrics exposition missing serve_admitted_total")
	}
	if err := s.Drain(drainCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestXCacheHeader pins the X-Cache response header the cluster gateway
// keys its affinity accounting on: a first submission announces "miss",
// an identical re-submission announces "hit".
func TestXCacheHeader(t *testing.T) {
	p := testPipeline(t, false, 13)
	cases := testCohort(t, 1, 17)
	s, ts := startServer(t, Config{Pipeline: p, Workers: 1, QueueDepth: 4, CacheSize: 8})

	resp, first := submit(t, ts, cases[0].Volume, 0)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first submission X-Cache = %q, want miss", got)
	}
	if done := poll(t, ts, first.ID, 30*time.Second); done.State != StateDone {
		t.Fatalf("first submission: %+v", done)
	}

	resp, _ = submit(t, ts, cases[0].Volume, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-submission: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("re-submission X-Cache = %q, want hit", got)
	}
	if err := s.Drain(drainCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestReadyzDuringDrain pins the drain-state contract the gateway's
// health ejection relies on: /readyz flips to 503 the moment Drain
// begins — while accepted scans are still finishing — not only after
// the drain completes, so a draining replica stops receiving traffic
// before it stops answering.
func TestReadyzDuringDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s, ts := startServer(t, Config{
		Workers: 1, QueueDepth: 4, CacheSize: -1,
		Process: func(v *volume.Volume) core.Result {
			started <- struct{}{}
			<-release
			return core.Result{Probability: 0.5}
		},
	})

	_, view := submit(t, ts, uniqueVolumes(1)[0], 0)
	<-started // worker now mid-scan

	readyz := func() int {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("readyz before drain: %d", got)
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(drainCtx(t, 10*time.Second)) }()
	// Draining turns true before Drain blocks on in-flight work; wait
	// for the flip, then confirm the server is mid-drain, not done.
	for wait := time.Now().Add(5 * time.Second); !s.Draining(); {
		if time.Now().After(wait) {
			t.Fatal("server never entered the draining state")
		}
		time.Sleep(time.Millisecond)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", got)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain finished with a scan still blocked (err %v)", err)
	default:
	}

	close(release)
	if err := <-drainDone; err != nil {
		t.Fatal(err)
	}
	if got := poll(t, ts, view.ID, 5*time.Second); got.State != StateDone {
		t.Fatalf("in-flight scan after drain: %+v", got)
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after drain: %d, want 503", got)
	}
}

// uniqueVolumes returns tiny distinct volumes (cache keys differ).
func uniqueVolumes(n int) []*volume.Volume {
	out := make([]*volume.Volume, n)
	for i := range out {
		v := volume.New(1, 2, 2)
		v.Data[0] = float32(i + 1)
		out[i] = v
	}
	return out
}

// endlessScan streams a syntactically valid ScanRequest whose data
// array never ends, counting the bytes the server pulled from it.
type endlessScan struct{ read int64 }

func (e *endlessScan) Read(p []byte) (int, error) {
	const head = `{"d":1,"h":1,"w":1,"data":[1`
	for i := range p {
		switch off := e.read + int64(i); {
		case off < int64(len(head)):
			p[i] = head[off]
		case (off-int64(len(head)))%2 == 0:
			p[i] = ','
		default:
			p[i] = '1'
		}
	}
	e.read += int64(len(p))
	return len(p), nil
}

func (e *endlessScan) Close() error { return nil }

// TestOversizedBodyRejectedAtTheBound pins the request-size bound on
// both body-reading endpoints: a body larger than any admissible volume
// could need is answered 413, and the server stops reading it at
// MaxBodyBytes instead of buffering it to find out how many voxels it
// holds.
func TestOversizedBodyRejectedAtTheBound(t *testing.T) {
	const maxVoxels = 64
	s, _ := startServer(t, Config{
		Workers: 1, QueueDepth: 2, MaxVoxels: maxVoxels, CacheSize: -1,
		Process: func(v *volume.Volume) core.Result { return core.Result{} },
		Enhance: func(v *volume.Volume) *volume.Volume { return v },
	})
	for _, path := range []string{"/v1/scan", "/v1/enhance"} {
		body := &endlessScan{}
		req := httptest.NewRequest(http.MethodPost, path, body)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: endless body answered %d, want 413", path, rec.Code)
		}
		// MaxBytesReader reads one byte past the bound to tell "exactly
		// at the limit" from "over it".
		if limit := MaxBodyBytes(maxVoxels) + 1; body.read > limit {
			t.Fatalf("%s: server read %d bytes of an endless body, bound is %d", path, body.read, limit)
		}
	}
	if err := s.Drain(drainCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// wrappingDims are request bodies whose declared dimensions multiply
// past the word size: the products wrap to 0, to len(data), or
// negative, so a check on the product alone admits them and the
// dimensions then size allocations.
var wrappingDims = map[string]string{
	"wraps to 0, no data":   `{"d":4294967296,"h":4294967296,"w":1,"data":[]}`,
	"wraps to 0 in w":       `{"d":65536,"h":65536,"w":4294967296,"data":[]}`,
	"wraps to len(data)":    `{"d":4611686018427387905,"h":4,"w":1,"data":[0,0,0,0]}`,
	"wraps negative":        `{"d":3037000500,"h":3037000500,"w":1,"data":[]}`,
	"one huge dimension":    `{"d":9223372036854775807,"h":1,"w":1,"data":[0]}`,
	"negative pair":         `{"d":-2,"h":-2,"w":1,"data":[0,0,0,0]}`,
	"over the limit, plain": `{"d":1,"h":1,"w":1000000,"data":[0]}`,
}

// TestWrappingDimensionsRejected: every wrapping body is refused with a
// 4xx on both volume-carrying endpoints before anything is sized by the
// declared dimensions (pre-fix, the first one killed the process with
// an unrecoverable out-of-memory in the enhancement), and the server
// still answers afterwards.
func TestWrappingDimensionsRejected(t *testing.T) {
	s, _ := startServer(t, Config{
		Workers: 1, QueueDepth: 2, CacheSize: -1,
		Pipeline: testPipeline(t, true, 3),
	})
	for _, path := range []string{"/v1/scan", "/v1/enhance"} {
		for name, body := range wrappingDims {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s %s: answered %d, want 400 or 413", path, name, rec.Code)
			}
		}
	}
	if n := len(s.store.jobs); n != 0 {
		t.Errorf("%d jobs were created from refused requests", n)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("server unhealthy after the wrapping requests: %d", rec.Code)
	}
	if err := s.Drain(drainCtx(t, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRetentionIsBounded submits three times retainedJobs scans —
// cache misses, cache hits and failures interleaved, so all three
// terminal transitions run — and checks the store afterwards: at most
// retainedJobs records, none holding its input volume or trace, the
// most recent id still pollable and the oldest forgotten like an id that
// never existed.
func TestStoreRetentionIsBounded(t *testing.T) {
	const total = 3 * retainedJobs
	s, ts := startServer(t, Config{
		Workers: 2, QueueDepth: total,
		Process: func(v *volume.Volume) core.Result {
			if v.Data[0] < 0 {
				panic("unreadable scan")
			}
			return core.Result{Probability: 0.5}
		},
	})
	var last string
	for i := 0; i < total; i++ {
		v := volume.New(1, 2, 2)
		switch {
		case i%256 == 0: // the stub panics: failed by a worker
			v.Data[0], v.Data[1] = -1, float32(i)
		case i%2 == 0: // unique content: a miss, finished by a worker
			v.Data[0], v.Data[1] = 1, float32(i)
		default: // repeated content: a hit once the first has finished
			v.Data[0] = 2
		}
		resp, view := submit(t, ts, v, 0)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		last = view.ID
	}
	if err := s.Drain(drainCtx(t, 10*time.Second)); err != nil {
		t.Fatal(err)
	}

	s.store.mu.Lock()
	if n := len(s.store.jobs); n > retainedJobs {
		t.Errorf("store holds %d jobs after %d scans, want at most %d", n, total, retainedJobs)
	}
	states := map[State]int{}
	for id, j := range s.store.jobs {
		states[j.state]++
		if j.vol != nil || j.ctx != nil || j.span != nil || j.qspan != nil {
			t.Errorf("finished job %s (%s) still holds its volume or trace", id, j.state)
		}
	}
	s.store.mu.Unlock()
	if states[StateDone] == 0 || states[StateFailed] == 0 || states[StateQueued]+states[StateRunning] != 0 {
		t.Errorf("retained job states %v, want only done and failed, both present", states)
	}

	for id, want := range map[string]int{last: http.StatusOK, "scan-000001": http.StatusNotFound} {
		resp, err := http.Get(ts.URL + "/v1/scan/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("poll %s: status %d, want %d", id, resp.StatusCode, want)
		}
	}
}
