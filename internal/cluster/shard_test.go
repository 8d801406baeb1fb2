package cluster

import (
	"context"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"computecovid19/internal/classify"
	"computecovid19/internal/core"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/obs"
	"computecovid19/internal/serve"
	"computecovid19/internal/volume"
	"computecovid19/internal/workflow"
)

func TestPlanChunksCoversEveryUnit(t *testing.T) {
	g, err := New(Config{Replicas: []string{"http://stub"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		d, healthy, fixed int
		wantChunks        int
	}{
		{9, 3, 1, 9},   // chunk size 1
		{9, 3, 5, 2},   // prime chunk, uneven tail
		{9, 3, 9, 1},   // whole-scan chunk
		{9, 3, 100, 1}, // oversize clamps to D
		{12, 3, 0, 6},  // auto: two chunks per healthy replica
		{512, 2, 0, 4}, // auto at depth: still two chunks per replica
	} {
		g.cfg.ShardChunkSlices = tc.fixed
		chunks := g.planChunks(tc.d, tc.healthy)
		if len(chunks) != tc.wantChunks {
			t.Fatalf("planChunks(%d, healthy=%d, fixed=%d) made %d chunks, want %d",
				tc.d, tc.healthy, tc.fixed, len(chunks), tc.wantChunks)
		}
		// Contiguous cover of [0, d), in order, no gaps or overlaps.
		z := 0
		for _, c := range chunks {
			if c.z0 != z || c.z1 <= c.z0 {
				t.Fatalf("chunk %+v breaks the contiguous cover at z=%d", c, z)
			}
			z = c.z1
		}
		if z != tc.d {
			t.Fatalf("chunks end at %d, want %d", z, tc.d)
		}
	}

	// The makespan model takes over auto sizing when it has a slice time.
	g.cfg.ShardChunkSlices = 0
	g.cfg.ShardEnhanceSlice = 10 * time.Millisecond
	g.cfg.ShardChunkOverhead = 5 * time.Millisecond
	if chunks := g.planChunks(12, 3); len(chunks) != 3 {
		t.Fatalf("model-driven plan made %d chunks, want 3 (k=4)", len(chunks))
	}
}

// TestShardChunkSlicesPicksMakespanOptimum pins the chunk-size search
// on a hand-checkable case: 12 slices across 3 replicas at 10 ms/slice.
// With no per-chunk overhead the 40 ms makespan is achievable at k = 1,
// 2, or 4, and ties break toward the larger chunk (fewer round trips);
// a 5 ms overhead makes the one-wave even split strictly best.
func TestShardChunkSlicesPicksMakespanOptimum(t *testing.T) {
	const perSlice = 10 * time.Millisecond
	if got := shardChunkSlices(12, 3, perSlice, 0); got != 4 {
		t.Fatalf("overhead-free chunk size %d, want 4 (largest makespan tie)", got)
	}
	if got := shardChunkSlices(12, 3, perSlice, 5*time.Millisecond); got != 4 {
		t.Fatalf("chunk size %d with overhead, want 4", got)
	}

	// No per-slice time: degrade to one even wave across the replicas.
	if got := shardChunkSlices(10, 3, 0, 5*time.Millisecond); got != 4 {
		t.Fatalf("model-free chunk size %d, want ceil(10/3)=4", got)
	}
}

// TestShardedLatencyModelMatchesSimulation is the simulator cross-check
// for the makespan model: mapping one scan's chunk fan-out onto the
// discrete-event simulator (each chunk a job, one server per replica,
// uniform chunk duration) must reproduce the analytic makespan exactly
// — both sides model the same list schedule.
func TestShardedLatencyModelMatchesSimulation(t *testing.T) {
	const perSlice, overhead = 2 * time.Millisecond, time.Millisecond
	for _, tc := range []struct{ slices, replicas, chunk int }{
		{8, 2, 1}, {8, 2, 3}, {12, 3, 4}, {512, 7, 16}, {9, 3, 9},
	} {
		p := workflow.Pipeline{
			Name: "sharded enhancement",
			Stages: []workflow.Stage{{
				Name:     "enhance (sharded)",
				Duration: workflow.Fixed(time.Duration(tc.chunk)*perSlice + overhead),
				Servers:  tc.replicas,
			}},
		}
		nchunks := (tc.slices + tc.chunk - 1) / tc.chunk
		res := workflow.Run(p, nchunks, 0, rand.New(rand.NewSource(1)))
		if want := shardedEnhanceSpan(tc.slices, tc.replicas, tc.chunk, perSlice, overhead); res.Max != want {
			t.Fatalf("slices=%d replicas=%d chunk=%d: simulated makespan %v, analytic %v",
				tc.slices, tc.replicas, tc.chunk, res.Max, want)
		}
	}
}

// shardPipeline builds one real (tiny) enhancement+classification
// pipeline shared by every replica in a sharding test, warmed up front
// as the serve replicas warm on start, so locally computed references
// and the replicas run one compiled plan.
func shardPipeline() *core.Pipeline {
	rng := rand.New(rand.NewSource(11))
	p := core.NewPipeline(ddnet.New(rng, ddnet.TinyConfig()), classify.New(rng, classify.SmallConfig()))
	p.Warm()
	return p
}

// shardVolume builds a deterministic D×16×16 HU volume.
func shardVolume(d int) *volume.Volume {
	v := volume.New(d, 16, 16)
	for i := range v.Data {
		v.Data[i] = float32((i*37)%1800 - 900)
	}
	return v
}

// bitIdentical compares volumes voxel-by-voxel at the bit level — the
// sharding guarantee is exactness, not tolerance.
func bitIdentical(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestShardedEnhanceBitIdentical is the property test from the issue:
// sharded enhancement across three replicas must be bit-identical to
// the single-pipeline Enhance for chunk sizes 1, a prime that divides
// nothing, and the whole scan in one chunk.
func TestShardedEnhanceBitIdentical(t *testing.T) {
	p := shardPipeline()
	v := shardVolume(9)
	want := p.Enhance(v)

	cfg := serve.Config{Pipeline: p, Workers: 1}
	_, r0 := startReplica(t, cfg)
	_, r1 := startReplica(t, cfg)
	_, r2 := startReplica(t, cfg)
	urls := []string{r0.URL, r1.URL, r2.URL}

	for _, chunk := range []int{1, 5, 9} {
		g, _ := startGateway(t, Config{
			Replicas:         urls,
			ShardSlices:      1,
			ShardChunkSlices: chunk,
			Seed:             int64(chunk),
		})
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		got, err := g.scatterEnhance(ctx, &serve.ScanRequest{D: v.D, H: v.H, W: v.W, Data: v.Data})
		cancel()
		if err != nil {
			t.Fatalf("chunk=%d: scatter: %v", chunk, err)
		}
		if !bitIdentical(got, want.Data) {
			t.Fatalf("chunk=%d: sharded enhancement is not bit-identical to single-replica Enhance", chunk)
		}
	}
}

// TestShardedEnhanceBitIdenticalUnderRedispatch injects chunk failures:
// one of the three replicas sits behind a proxy that 500s every other
// /v1/enhance call, so chunks routinely die and re-dispatch to the
// survivors. The reassembled volume must still be bit-identical, and
// the re-dispatch counter must show the injections actually happened.
func TestShardedEnhanceBitIdenticalUnderRedispatch(t *testing.T) {
	p := shardPipeline()
	v := shardVolume(9)
	want := p.Enhance(v)

	cfg := serve.Config{Pipeline: p, Workers: 1}
	_, r0 := startReplica(t, cfg)
	_, r1 := startReplica(t, cfg)
	_, r2 := startReplica(t, cfg)

	target, err := url.Parse(r2.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxy := httputil.NewSingleHostReverseProxy(target)
	var calls, injected atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/enhance" && calls.Add(1)%2 == 1 {
			injected.Add(1)
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	redispatchBefore := shardRedispatchTotal.Value()
	g, _ := startGateway(t, Config{
		Replicas:         []string{r0.URL, r1.URL, flaky.URL},
		ShardSlices:      1,
		ShardChunkSlices: 1, // 9 chunks: plenty of dice rolls on the flaky replica
		Seed:             3,
	})
	for round := 0; round < 4; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		got, err := g.scatterEnhance(ctx, &serve.ScanRequest{D: v.D, H: v.H, W: v.W, Data: v.Data})
		cancel()
		if err != nil {
			t.Fatalf("round %d: scatter under injected failures: %v", round, err)
		}
		if !bitIdentical(got, want.Data) {
			t.Fatalf("round %d: re-dispatched sharding lost bit-identity", round)
		}
	}
	if injected.Load() == 0 {
		t.Fatal("the fault injector never fired; the test proved nothing")
	}
	if got := shardRedispatchTotal.Value() - redispatchBefore; got == 0 {
		t.Fatal("injected chunk failures never showed up in cluster_shard_redispatch_total")
	}
}

// TestShardedScanMatchesUnsharded runs the full sharded scan path —
// scatter, gather, pre-enhanced classify — through the gateway HTTP API
// and requires the terminal probability to equal the local
// enhance+classify result exactly (float64 JSON round-trips are exact,
// like float32 ones).
func TestShardedScanMatchesUnsharded(t *testing.T) {
	p := shardPipeline()
	v := shardVolume(8)
	want := p.Classify(p.Enhance(v))

	cfg := serve.Config{Pipeline: p, Workers: 1}
	_, r0 := startReplica(t, cfg)
	_, r1 := startReplica(t, cfg)
	_, r2 := startReplica(t, cfg)

	scansBefore := shardScansTotal.Value()
	g, gw := startGateway(t, Config{
		Replicas:    []string{r0.URL, r1.URL, r2.URL},
		ShardSlices: 4,
		Seed:        5,
	})
	resp, view := postScan(t, gw.URL, scanBody(t, v))
	if resp.StatusCode != http.StatusOK || view.State != serve.StateDone {
		t.Fatalf("sharded scan: status %d view %+v", resp.StatusCode, view)
	}
	if view.Result == nil || view.Result.Probability != want.Probability {
		t.Fatalf("sharded probability %+v, want exactly %v", view.Result, want.Probability)
	}
	if shardScansTotal.Value() == scansBefore {
		t.Fatal("the scan did not take the sharded path")
	}

	// Below the slice threshold the scan routes whole.
	shallow := shardVolume(3)
	scansBefore = shardScansTotal.Value()
	resp2, view2 := postScan(t, gw.URL, scanBody(t, shallow))
	if resp2.StatusCode != http.StatusOK || view2.State != serve.StateDone {
		t.Fatalf("shallow scan: status %d view %+v", resp2.StatusCode, view2)
	}
	if shardScansTotal.Value() != scansBefore {
		t.Fatal("a 3-slice scan sharded despite ShardSlices=4")
	}
	_ = g
}

// TestReloadDuringScatterDoesNotOrphanChunks is the SIGHUP-race test:
// SetReplicas fires while scatters are mid-flight, removing a replica
// that holds outstanding chunks and adding a fresh one. Every scan must
// still complete with a bit-identical volume — inflight chunks on the
// removed replica either finish (the *replica object outlives the set)
// or re-dispatch to survivors; none may be orphaned.
func TestReloadDuringScatterDoesNotOrphanChunks(t *testing.T) {
	// Identity enhancement with a per-chunk stall keeps scatters open
	// long enough for the reload to land mid-flight.
	slowIdentity := func(v *volume.Volume) *volume.Volume {
		time.Sleep(5 * time.Millisecond)
		return v
	}
	cfg := serve.Config{
		Process: stubProcess(time.Millisecond),
		Enhance: slowIdentity,
		Workers: 2,
	}
	_, r0 := startReplica(t, cfg)
	_, r1 := startReplica(t, cfg)
	_, r2 := startReplica(t, cfg)
	_, r3 := startReplica(t, cfg) // joins at reload

	g, gw := startGateway(t, Config{
		Replicas:         []string{r0.URL, r1.URL, r2.URL},
		ShardSlices:      1,
		ShardChunkSlices: 1,
		HealthInterval:   10 * time.Millisecond,
		Seed:             9,
	})

	const scans = 8
	vols := make([]*volume.Volume, scans)
	for i := range vols {
		vols[i] = shardVolume(12)
		vols[i].Data[0] = float32(i) // distinct bodies: no affinity pinning
	}
	var wg sync.WaitGroup
	errs := make(chan string, scans)
	wg.Add(scans)
	for i := 0; i < scans; i++ {
		go func(v *volume.Volume) {
			defer wg.Done()
			resp, view := postScan(t, gw.URL, scanBody(t, v))
			if resp.StatusCode != http.StatusOK || view.State != serve.StateDone {
				errs <- view.Error
			}
		}(vols[i])
	}

	// Reload mid-scatter: drop r2 (which holds inflight chunks), add r3.
	time.Sleep(10 * time.Millisecond)
	if err := g.SetReplicas([]string{r0.URL, r1.URL, r3.URL}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatalf("scan failed across the reload: %s", e)
	}

	// The new set is live: r3 present, r2 gone.
	var urls []string
	for _, rs := range g.Snapshot() {
		urls = append(urls, rs.URL)
	}
	sort.Strings(urls)
	want := []string{r0.URL, r1.URL, r3.URL}
	sort.Strings(want)
	if strings.Join(urls, ",") != strings.Join(want, ",") {
		t.Fatalf("replica set after reload: %v, want %v", urls, want)
	}
}

// TestShardedTraceTree pins the sharded span topology: the scatter span
// hangs under the request, every chunk under the scatter, the replica's
// enhance-chunk handler under its chunk (crossing the wire through
// Traceparent), and the classify leg keeps the ordinary attempt spine.
// Edges are deduplicated — the chunk count varies with routing, the
// shape must not.
func TestShardedTraceTree(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()

	cfg := serve.Config{Process: stubProcess(0), Workers: 1}
	_, r0 := startReplica(t, cfg)
	_, r1 := startReplica(t, cfg)
	_, gw := startGateway(t, Config{
		Replicas:         []string{r0.URL, r1.URL},
		ShardSlices:      1,
		ShardChunkSlices: 1,
		DisableHedging:   true,
		HealthInterval:   time.Hour,
	})

	v := shardVolume(4)
	resp, view := postScan(t, gw.URL, scanBody(t, v))
	if resp.StatusCode != http.StatusOK || view.State != serve.StateDone {
		t.Fatalf("sharded scan: status %d view %+v", resp.StatusCode, view)
	}

	recs, dropped := obs.TraceRecords()
	if dropped != 0 {
		t.Fatalf("span buffer dropped %d records", dropped)
	}
	byID := make(map[obs.SpanID]obs.SpanRecord, len(recs))
	var root obs.SpanRecord
	for _, r := range recs {
		byID[r.ID] = r
		if r.Name == "gateway/request" {
			root = r
		}
	}
	if root.Name == "" {
		t.Fatal("no gateway/request span recorded")
	}
	edgeSet := make(map[string]bool)
	for _, r := range recs {
		if r.Trace != root.Trace {
			continue
		}
		parent := "root"
		if p, ok := byID[r.Parent]; ok {
			parent = p.Name
		}
		edgeSet[r.Name+"<-"+parent] = true
	}
	var gotEdges []string
	for e := range edgeSet {
		gotEdges = append(gotEdges, e)
	}
	sort.Strings(gotEdges)
	wantEdges := []string{
		"gateway/attempt<-gateway/request",
		"gateway/chunk<-gateway/scatter",
		"gateway/request<-root",
		"gateway/scatter<-gateway/request",
		"serve/enhance-chunk<-gateway/chunk",
		"serve/http<-serve/request",
		"serve/process<-serve/request",
		"serve/queue<-serve/request",
		"serve/request<-gateway/attempt",
	}
	if strings.Join(gotEdges, "\n") != strings.Join(wantEdges, "\n") {
		t.Fatalf("sharded trace tree:\n%s\nwant:\n%s",
			strings.Join(gotEdges, "\n"), strings.Join(wantEdges, "\n"))
	}
}

// TestEndlessChunkReplyFallsBack: a replica that answers a chunk with
// an endless 200 reply is read only up to the bound a request of the
// chunk's voxels gets. The chunk fails there, and the scan falls back
// to the unsharded path instead of buffering the stream without limit.
func TestEndlessChunkReplyFallsBack(t *testing.T) {
	const streamCap = 32 << 20 // far past the bound and any socket buffer
	var finished atomic.Int64
	endless := func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		src, buf := &endlessScan{}, make([]byte, 32<<10)
		for sent := 0; sent < streamCap; sent += len(buf) {
			src.Read(buf)
			if _, err := w.Write(buf); err != nil {
				return // the gateway hung up
			}
		}
		finished.Add(1)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		s, _ := startReplica(t, serve.Config{})
		mux := http.NewServeMux()
		mux.Handle("/", s.Handler())
		mux.HandleFunc("POST /v1/enhance", endless)
		ts := httptest.NewServer(mux)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	_, gw := startGateway(t, Config{
		Replicas:         urls,
		ShardSlices:      1,
		ShardChunkSlices: 1,
		DisableHedging:   true,
		HealthInterval:   time.Hour,
	})

	fallbacksBefore := shardFallbacksTotal.Value()
	resp, view := postScan(t, gw.URL, scanBody(t, uniqueVolumes(1)[0]))
	if resp.StatusCode != http.StatusOK || view.State != serve.StateDone {
		t.Fatalf("scan: status %d view %+v", resp.StatusCode, view)
	}
	if shardFallbacksTotal.Value() == fallbacksBefore {
		t.Fatal("the scan did not fall back to the unsharded path")
	}
	if n := finished.Load(); n != 0 {
		t.Fatalf("the gateway read %d endless chunk replies to the %d MiB end", n, streamCap>>20)
	}
}
