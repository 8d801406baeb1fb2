package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"computecovid19/internal/core"
	"computecovid19/internal/serve"
	"computecovid19/internal/volume"
)

// stubProcess is a pipeline stand-in: sleep, then diagnose.
func stubProcess(d time.Duration) func(*volume.Volume) core.Result {
	return func(*volume.Volume) core.Result {
		if d > 0 {
			time.Sleep(d)
		}
		return core.Result{Probability: 0.5}
	}
}

// startReplica runs a real serve.Server (stubbed pipeline) on an
// httptest listener and registers cleanup.
func startReplica(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = -1
	}
	if cfg.Process == nil && cfg.Pipeline == nil {
		cfg.Process = stubProcess(time.Millisecond)
	}
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
		ts.Close()
	})
	return s, ts
}

// startGateway builds, starts, and cleans up a Gateway plus its HTTP
// front end.
func startGateway(t *testing.T, cfg Config) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		g.Drain(ctx)
		ts.Close()
	})
	return g, ts
}

// uniqueVolumes builds n distinct 2×4×4 volumes.
func uniqueVolumes(n int) []*volume.Volume {
	vols := make([]*volume.Volume, n)
	for i := range vols {
		v := volume.New(2, 4, 4)
		for j := range v.Data {
			v.Data[j] = float32(i*len(v.Data) + j)
		}
		vols[i] = v
	}
	return vols
}

func scanBody(t *testing.T, v *volume.Volume) []byte {
	t.Helper()
	b, err := json.Marshal(serve.ScanRequest{D: v.D, H: v.H, W: v.W, Data: v.Data})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postScan submits one scan to the gateway and decodes the response.
func postScan(t *testing.T, url string, body []byte) (*http.Response, serve.JobView) {
	t.Helper()
	resp, err := http.Post(url+"/v1/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view serve.JobView
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
	}
	return resp, view
}

func TestRingAffinityStableAndFailsOver(t *testing.T) {
	reps := []*replica{
		newReplica("r0", "http://a"),
		newReplica("r1", "http://b"),
		newReplica("r2", "http://c"),
	}
	ring := buildRing(reps, 64)
	all := func(*replica) bool { return true }

	owner := ringOwner(ring, "some-content-key", all)
	if owner == nil {
		t.Fatal("no owner on a populated ring")
	}
	for i := 0; i < 10; i++ {
		if got := ringOwner(ring, "some-content-key", all); got != owner {
			t.Fatalf("owner flapped: %s then %s", owner.name, got.name)
		}
	}
	// With the owner ineligible the key fails over — deterministically —
	// and returns home once the owner is eligible again.
	fallback := ringOwner(ring, "some-content-key", func(r *replica) bool { return r != owner })
	if fallback == nil || fallback == owner {
		t.Fatalf("failover owner = %v", fallback)
	}
	if got := ringOwner(ring, "some-content-key", func(r *replica) bool { return r != owner }); got != fallback {
		t.Fatalf("failover owner flapped: %s then %s", fallback.name, got.name)
	}
	if got := ringOwner(ring, "some-content-key", all); got != owner {
		t.Fatalf("key did not return to its owner: %s", got.name)
	}
	if ringOwner(ring, "some-content-key", func(*replica) bool { return false }) != nil {
		t.Fatal("owner found with nothing eligible")
	}

	// Membership change only remaps the removed replica's keys.
	smaller := buildRing(reps[:2], 64)
	moved := 0
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		was, is := ringOwner(ring, key, all), ringOwner(smaller, key, all)
		if was != reps[2] && was != is {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving replicas moved on membership change", moved)
	}
}

func TestPickPrefersLessLoadedReplica(t *testing.T) {
	g, err := New(Config{Replicas: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	reps := g.snapshotReplicas()
	// Replica 0 is drowning; p2c must send load-aware picks to the other.
	reps[0].inflight.Store(100)
	reps[0].observeLatency(time.Second)
	reps[1].observeLatency(10 * time.Millisecond)
	for i := 0; i < 20; i++ {
		rep, affine := g.pick("", nil)
		if affine {
			t.Fatal("keyless pick reported affinity")
		}
		if rep != reps[1] {
			t.Fatalf("pick %d chose the loaded replica", i)
		}
	}
	// Exclusion forces the loaded one.
	if rep, _ := g.pick("", map[*replica]bool{reps[1]: true}); rep != reps[0] {
		t.Fatal("exclusion not honored")
	}
	// Everything excluded: nothing to pick.
	if rep, _ := g.pick("", map[*replica]bool{reps[0]: true, reps[1]: true}); rep != nil {
		t.Fatal("picked an excluded replica")
	}
}

func TestPickFallsBackToEjectedWhenNoneHealthy(t *testing.T) {
	g, err := New(Config{Replicas: []string{"http://a"}})
	if err != nil {
		t.Fatal(err)
	}
	rep := g.snapshotReplicas()[0]
	rep.state.Store(int32(stateEjected))
	if got, _ := g.pick("k", nil); got != rep {
		t.Fatal("an all-ejected set must still route (attempts double as probes)")
	}
}

func TestHealthStateMachine(t *testing.T) {
	r := newReplica("r0", "http://a")
	const ejectAfter, readmitAfter = 3, 2

	for i := 0; i < ejectAfter-1; i++ {
		if ej, _ := r.noteProbe(false, ejectAfter, readmitAfter); ej {
			t.Fatalf("ejected after %d failures, want %d", i+1, ejectAfter)
		}
	}
	// A success clears the streak.
	r.noteProbe(true, ejectAfter, readmitAfter)
	for i := 0; i < ejectAfter-1; i++ {
		r.noteProbe(false, ejectAfter, readmitAfter)
	}
	if !r.healthy() {
		t.Fatal("ejected below the failure threshold")
	}
	if ej, _ := r.noteProbe(false, ejectAfter, readmitAfter); !ej || r.healthy() {
		t.Fatal("not ejected at the failure threshold")
	}
	// Half-open: one success is not enough, a failure resets the streak.
	if _, re := r.noteProbe(true, ejectAfter, readmitAfter); re {
		t.Fatal("readmitted after one success")
	}
	r.noteProbe(false, ejectAfter, readmitAfter)
	r.noteProbe(true, ejectAfter, readmitAfter)
	if r.healthy() {
		t.Fatal("readmitted despite interrupted success streak")
	}
	if _, re := r.noteProbe(true, ejectAfter, readmitAfter); !re || !r.healthy() {
		t.Fatal("not readmitted after the success streak")
	}
}

func TestSetReplicasKeepsSurvivorIdentity(t *testing.T) {
	g, err := New(Config{Replicas: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	keep := g.replicaByName("r0")
	keep.served.Add(7)

	if err := g.SetReplicas([]string{keep.url, "http://c"}); err != nil {
		t.Fatal(err)
	}
	if got := g.replicaByName("r0"); got != keep || got.served.Load() != 7 {
		t.Fatal("surviving replica lost its identity on reload")
	}
	names := map[string]bool{}
	for _, rs := range g.Snapshot() {
		names[rs.Name] = true
	}
	if !names["r0"] || names["r1"] || len(names) != 2 {
		t.Fatalf("replica set after reload: %v", names)
	}

	if err := g.SetReplicas(nil); err == nil {
		t.Fatal("empty reload accepted")
	}
	if err := g.SetReplicas([]string{"http://x", "http://x/"}); err == nil {
		t.Fatal("duplicate URLs accepted")
	}
}

// TestGatewayEndToEnd drives a 2-replica gateway through the whole
// synchronous surface: submit → 200 terminal view with @replica id,
// re-fetch by gateway id, cache-affinity on resubmission, and the ops
// endpoints.
func TestGatewayEndToEnd(t *testing.T) {
	_, r0 := startReplica(t, serve.Config{CacheSize: 8})
	_, r1 := startReplica(t, serve.Config{CacheSize: 8})
	g, gw := startGateway(t, Config{
		Replicas:       []string{r0.URL, r1.URL},
		DisableHedging: true,
	})

	affinityBefore := affinityHits.Value()
	body := scanBody(t, uniqueVolumes(1)[0])
	resp, view := postScan(t, gw.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if view.State != serve.StateDone {
		t.Fatalf("gateway answered non-terminal state %q", view.State)
	}
	local, repName, ok := cutLast(view.ID, "@")
	if !ok || local == "" || g.replicaByName(repName) == nil {
		t.Fatalf("gateway id %q does not name a replica", view.ID)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first submission X-Cache = %q, want miss", got)
	}

	// Re-fetch through the gateway by the composite id.
	resp2, err := http.Get(gw.URL + "/v1/scan/" + view.ID)
	if err != nil {
		t.Fatal(err)
	}
	var again serve.JobView
	if err := json.NewDecoder(resp2.Body).Decode(&again); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || again.ID != view.ID || again.State != serve.StateDone {
		t.Fatalf("re-fetch: status %d view %+v", resp2.StatusCode, again)
	}
	if resp3, err := http.Get(gw.URL + "/v1/scan/no-such-id"); err != nil {
		t.Fatal(err)
	} else {
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusNotFound {
			t.Fatalf("bogus id status %d", resp3.StatusCode)
		}
	}

	// Same content again: affinity routes it to the same replica, whose
	// cache answers — and the gateway measures the hit.
	resp4, view4 := postScan(t, gw.URL, body)
	if resp4.StatusCode != http.StatusOK || view4.State != serve.StateDone {
		t.Fatalf("resubmit: status %d view %+v", resp4.StatusCode, view4)
	}
	if got := resp4.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("resubmission X-Cache = %q, want hit", got)
	}
	if !strings.HasSuffix(view4.ID, "@"+repName) {
		t.Fatalf("resubmission landed on %q, want affinity to %q", view4.ID, repName)
	}
	if affinityHits.Value() != affinityBefore+1 {
		t.Fatal("affinity cache hit not counted")
	}

	// Ops surface.
	var statuses []ReplicaStatus
	resp5, err := http.Get(gw.URL + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp5.Body).Decode(&statuses); err != nil {
		t.Fatal(err)
	}
	resp5.Body.Close()
	if len(statuses) != 2 {
		t.Fatalf("%d replica statuses, want 2", len(statuses))
	}
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(gw.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}
	mresp, err := http.Get(gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"cluster_requests_total", "cluster_inflight{replica="} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	// Bad submissions fail fast at the gateway.
	respBad, _ := postScan(t, gw.URL, []byte(`{"d":1,"h":2,"w":2,"data":[1]}`))
	if respBad.StatusCode != http.StatusBadRequest {
		t.Fatalf("dimension mismatch status %d", respBad.StatusCode)
	}
}

// fakeReplica serves the minimal replica protocol with a scripted
// submit handler; /readyz always answers ok.
func fakeReplica(t *testing.T, submit http.HandlerFunc) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", submit)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func doneView(id string) serve.JobView {
	return serve.JobView{ID: id, State: serve.StateDone}
}

func TestRetryAfterUpstreamFailure(t *testing.T) {
	retriesBefore := retriesTotal.Value()
	var calls atomic.Int64
	// First two submissions blow up server-side; the third succeeds.
	flaky := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, doneView("job-1"))
	})
	_, gw := startGateway(t, Config{
		Replicas:       []string{flaky.URL},
		DisableHedging: true,
		MaxRetries:     3,
	})
	resp, view := postScan(t, gw.URL, scanBody(t, uniqueVolumes(1)[0]))
	if resp.StatusCode != http.StatusOK || view.State != serve.StateDone {
		t.Fatalf("status %d view %+v", resp.StatusCode, view)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("replica saw %d attempts, want 3", got)
	}
	if retriesTotal.Value() != retriesBefore+2 {
		t.Fatalf("counted %d retries, want 2", retriesTotal.Value()-retriesBefore)
	}
}

func TestRetryBudgetExhaustionIs502(t *testing.T) {
	always := fakeReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	_, gw := startGateway(t, Config{
		Replicas:       []string{always.URL},
		DisableHedging: true,
		MaxRetries:     2,
		EjectAfter:     100, // keep it routable; this test is about the budget
	})
	resp, _ := postScan(t, gw.URL, scanBody(t, uniqueVolumes(1)[0]))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
}

func TestRetryHonorsRetryAfterBackpressure(t *testing.T) {
	var calls atomic.Int64
	var firstRetryGap atomic.Int64
	var lastReject atomic.Int64
	busy := fakeReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			lastReject.Store(time.Now().UnixNano())
			w.Header().Set("Retry-After", "1")
			http.Error(w, "busy", http.StatusTooManyRequests)
			return
		}
		firstRetryGap.Store(time.Now().UnixNano() - lastReject.Load())
		writeJSON(w, http.StatusOK, doneView("job-1"))
	})
	_, gw := startGateway(t, Config{
		Replicas:       []string{busy.URL},
		DisableHedging: true,
		MaxRetries:     2,
	})
	resp, _ := postScan(t, gw.URL, scanBody(t, uniqueVolumes(1)[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if gap := time.Duration(firstRetryGap.Load()); gap < time.Second {
		t.Fatalf("retry after %v, want the advertised 1s honored", gap)
	}
}

func TestTerminal4xxPassesThroughWithoutRetry(t *testing.T) {
	var calls atomic.Int64
	judgy := fakeReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge, "volume too large")
	})
	_, gw := startGateway(t, Config{
		Replicas:       []string{judgy.URL},
		DisableHedging: true,
	})
	resp, _ := postScan(t, gw.URL, scanBody(t, uniqueVolumes(1)[0]))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want the replica's 413", resp.StatusCode)
	}
	if calls.Load() != 1 {
		t.Fatalf("terminal 4xx was retried (%d attempts)", calls.Load())
	}
}

func TestDeadlineBoundsRetries(t *testing.T) {
	stuck := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		// Drain the body: the server only notices a vanished client (and
		// cancels our context) once nothing is left to read.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	})
	_, gw := startGateway(t, Config{
		Replicas:        []string{stuck.URL},
		DisableHedging:  true,
		MaxRetries:      100,
		DefaultDeadline: 150 * time.Millisecond,
	})
	start := time.Now()
	resp, _ := postScan(t, gw.URL, scanBody(t, uniqueVolumes(1)[0]))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status %d, want 502", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the retry loop (%v)", elapsed)
	}
}

// TestHedgeWinsAgainstSlowReplica pins the hedging path: with one
// replica answering instantly and one stalling far past the hedge
// delay, scans routed to the slow one must be won by a hedge to the
// fast one — first response wins, client sees only fast answers.
func TestHedgeWinsAgainstSlowReplica(t *testing.T) {
	const stall = 400 * time.Millisecond
	var slowCalls, fastCalls atomic.Int64
	slow := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		slowCalls.Add(1)
		io.Copy(io.Discard, r.Body) // unread body defeats disconnect detection
		select {
		case <-time.After(stall):
		case <-r.Context().Done(): // hedge won; we were cancelled
			return
		}
		writeJSON(w, http.StatusOK, doneView("slow-job"))
	})
	fast := fakeReplica(t, func(w http.ResponseWriter, _ *http.Request) {
		fastCalls.Add(1)
		writeJSON(w, http.StatusOK, doneView("fast-job"))
	})

	winsBefore, hedgesBefore := hedgeWinsTotal.Value(), hedgesTotal.Value()
	_, gw := startGateway(t, Config{
		Replicas: []string{slow.URL, fast.URL},
		// Fixed 20 ms hedge trigger: min == max pins the adaptive clamp.
		HedgeDelayMin: 20 * time.Millisecond,
		HedgeDelayMax: 20 * time.Millisecond,
	})

	vols := uniqueVolumes(8)
	for i, v := range vols {
		start := time.Now()
		resp, view := postScan(t, gw.URL, scanBody(t, v))
		if resp.StatusCode != http.StatusOK || view.State != serve.StateDone {
			t.Fatalf("scan %d: status %d view %+v", i, resp.StatusCode, view)
		}
		if elapsed := time.Since(start); elapsed >= stall {
			t.Fatalf("scan %d took %v — a hedge should have beaten the %v stall", i, elapsed, stall)
		}
		if slowCalls.Load() > 0 && hedgeWinsTotal.Value() > winsBefore {
			break // the path under test has fired
		}
	}
	if slowCalls.Load() == 0 {
		t.Skip("routing never chose the slow replica (seed-dependent); nothing hedged")
	}
	if hedgesTotal.Value() == hedgesBefore || hedgeWinsTotal.Value() == winsBefore {
		t.Fatalf("slow replica saw %d scans but hedges=%d wins=%d",
			slowCalls.Load(), hedgesTotal.Value()-hedgesBefore, hedgeWinsTotal.Value()-winsBefore)
	}
}

// TestHedgeDelayAdaptive pins the trigger policy: maximum delay while
// cold, the observed p95 (floored) once warmed up, and a full pause
// when the p95 blows past the cap — a uniformly slow cluster is
// saturated and hedges would feed the overload.
func TestHedgeDelayAdaptive(t *testing.T) {
	g, err := New(Config{
		Replicas:        []string{"http://a"},
		HedgeDelayMin:   5 * time.Millisecond,
		HedgeDelayMax:   100 * time.Millisecond,
		HedgeMinSamples: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.hedgeDelay(g.attemptLat); got != 100*time.Millisecond {
		t.Fatalf("cold hedge delay %v, want the %v maximum", got, 100*time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		g.attemptLat.Observe(0.001)
	}
	if got := g.hedgeDelay(g.attemptLat); got < 5*time.Millisecond || got > 100*time.Millisecond {
		t.Fatalf("warm hedge delay %v outside [5ms, 100ms]", got)
	}
	for i := 0; i < 200; i++ {
		g.attemptLat.Observe(2.0)
	}
	if got := g.hedgeDelay(g.attemptLat); got != 0 {
		t.Fatalf("saturated hedge delay %v, want 0 (paused)", got)
	}

	off, err := New(Config{Replicas: []string{"http://a"}, DisableHedging: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := off.hedgeDelay(off.attemptLat); got != 0 {
		t.Fatalf("disabled hedging delay %v, want 0", got)
	}
}

func TestGatewayDrainStopsAdmission(t *testing.T) {
	_, r0 := startReplica(t, serve.Config{})
	g, gw := startGateway(t, Config{Replicas: []string{r0.URL}, DisableHedging: true})

	if resp, _ := http.Get(gw.URL + "/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %d", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := g.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(gw.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d, want 503", resp.StatusCode)
	}
	resp2, _ := postScan(t, gw.URL, scanBody(t, uniqueVolumes(1)[0]))
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("draining submit: status %d retry-after %q",
			resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}
}

// TestHealthLoopEjectsAndReadmits exercises the active prober: a
// replica flipping its readyz to 503 is ejected and readyz reports the
// cluster unready; flipping back readmits it.
func TestHealthLoopEjectsAndReadmits(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	rep := httptest.NewServer(mux)
	t.Cleanup(rep.Close)

	g, gw := startGateway(t, Config{
		Replicas:       []string{rep.URL},
		HealthInterval: 10 * time.Millisecond,
		EjectAfter:     2,
		ReadmitAfter:   2,
	})

	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if g.Snapshot()[0].State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica never became %s: %+v", want, g.Snapshot()[0])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	waitState("healthy")
	ready.Store(false)
	waitState("ejected")
	resp, err := http.Get(gw.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("gateway readyz with zero healthy replicas: %d, want 503", resp.StatusCode)
	}
	ready.Store(true)
	waitState("healthy")
}

// endlessScan streams a syntactically valid scan body whose data array
// never ends, counting the bytes the gateway pulled from it.
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

// TestGatewayOversizedBodyRejectedAtTheBound pins the gateway's body
// bound: it buffers at most what a replica could admit (lowered here
// from serve's default so the test body stays small), answers 413
// itself, and never forwards the truncated body.
func TestGatewayOversizedBodyRejectedAtTheBound(t *testing.T) {
	rep := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		t.Error("an over-limit body must not reach a replica")
	})
	g, _ := startGateway(t, Config{Replicas: []string{rep.URL}})
	if g.maxVoxels != serve.DefaultMaxVoxels {
		t.Fatalf("gateway bounds bodies at %d voxels, want serve's default %d", g.maxVoxels, serve.DefaultMaxVoxels)
	}
	g.maxVoxels = 64
	body := &endlessScan{}
	rec := httptest.NewRecorder()
	g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scan", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("endless body answered %d, want 413", rec.Code)
	}
	// MaxBytesReader reads one byte past the bound to detect the overrun.
	if limit := serve.MaxBodyBytes(64) + 1; body.read > limit {
		t.Fatalf("gateway read %d bytes of an endless body, bound is %d", body.read, limit)
	}
}

// TestGatewayWrappingDimensionsRejected: bodies whose declared
// dimensions multiply past the word size (the product wraps to 0, to
// len(data), or negative) are refused by the gateway itself with a 4xx
// — they never reach a replica, and never reach planChunks, which
// sizes its work by req.D.
func TestGatewayWrappingDimensionsRejected(t *testing.T) {
	rep := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		t.Error("a request with wrapping dimensions must not reach a replica")
	})
	g, _ := startGateway(t, Config{Replicas: []string{rep.URL}, ShardSlices: 2})
	for name, body := range map[string]string{
		"wraps to 0, no data": `{"d":4294967296,"h":4294967296,"w":1,"data":[]}`,
		"wraps to len(data)":  `{"d":4611686018427387905,"h":4,"w":1,"data":[0,0,0,0]}`,
		"wraps negative":      `{"d":3037000500,"h":3037000500,"w":1,"data":[]}`,
		"one huge dimension":  `{"d":9223372036854775807,"h":1,"w":1,"data":[0]}`,
		"negative pair":       `{"d":-2,"h":-2,"w":1,"data":[0,0,0,0]}`,
	} {
		rec := httptest.NewRecorder()
		g.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scan", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: gateway answered %d, want 400 or 413", name, rec.Code)
		}
	}
}

// TestTrailingDataRejected: on every endpoint that reads a scan body —
// a replica's /v1/scan and /v1/enhance and the gateway's /v1/scan — a
// body with anything but whitespace after the scan object is refused
// with 400, and the same object alone is admitted.
func TestTrailingDataRejected(t *testing.T) {
	rep, rts := startReplica(t, serve.Config{Enhance: func(v *volume.Volume) *volume.Volume { return v }})
	g, _ := startGateway(t, Config{Replicas: []string{rts.URL}, HealthInterval: time.Hour})
	const scan = `{"d":1,"h":1,"w":2,"data":[1,2]}`
	for _, ep := range []struct {
		name, path string
		h          http.Handler
	}{
		{"replica", "/v1/scan", rep.Handler()},
		{"replica", "/v1/enhance", rep.Handler()},
		{"gateway", "/v1/scan", g.Handler()},
	} {
		for body, admit := range map[string]bool{
			scan:                  true,
			" " + scan + "\r\n\t": true,
			scan + "garbage":      false,
			scan + scan:           false,
			scan + " }":           false,
			scan + "\x00":         false,
		} {
			rec := httptest.NewRecorder()
			ep.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(body)))
			if admitted := rec.Code/100 == 2; admitted != admit || !admit && rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s %q: answered %d, want admitted=%v (refusals 400)", ep.name, ep.path, body, rec.Code, admit)
			}
		}
	}
}
