package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"computecovid19/internal/serve"
	"computecovid19/internal/volume"
)

// chaosReplica is a ccserve instance on a real loopback listener that
// can be killed abruptly and restarted on the same address — the
// restartable unit the chaos test yanks out from under the gateway.
type chaosReplica struct {
	addr string
	s    *serve.Server
	srv  *http.Server
	errc chan error
}

func startChaosReplica(t *testing.T, addr string) *chaosReplica {
	t.Helper()
	return startChaosReplicaCfg(t, addr, serve.Config{
		Workers: 2, QueueDepth: 64, CacheSize: -1,
		Process: stubProcess(5 * time.Millisecond),
	})
}

func startChaosReplicaCfg(t *testing.T, addr string, cfg serve.Config) *chaosReplica {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()

	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	// A just-killed replica's port can linger briefly; retry the bind.
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	r := &chaosReplica{
		addr: ln.Addr().String(),
		s:    s,
		srv:  &http.Server{Handler: s.Handler()},
		errc: make(chan error, 1),
	}
	go func() { r.errc <- r.srv.Serve(ln) }()
	return r
}

// kill closes the listener and every open connection — a crash, not a
// drain. In-flight scans at this replica die with it.
func (r *chaosReplica) kill(t *testing.T) {
	t.Helper()
	r.srv.Close()
	<-r.errc
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.s.Drain(ctx) // stop the orphaned worker pool
}

func (r *chaosReplica) url() string { return "http://" + r.addr }

// TestChaosReplicaKillMidLoad is the chaos acceptance test: three
// replicas behind the gateway, one killed abruptly mid-load and later
// restarted on the same address. The client side must see zero failed
// requests — the gateway absorbs the crash with retries/hedges and the
// health loop ejects the corpse — and the restarted replica must be
// readmitted and take traffic again.
func TestChaosReplicaKillMidLoad(t *testing.T) {
	reps := []*chaosReplica{
		startChaosReplica(t, ""),
		startChaosReplica(t, ""),
		startChaosReplica(t, ""),
	}
	urls := []string{reps[0].url(), reps[1].url(), reps[2].url()}
	ejectionsBefore := ejectionsTotal.Value()
	readmitsBefore := readmitsTotal.Value()

	g, err := New(Config{
		Replicas:       urls,
		HealthInterval: 20 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		EjectAfter:     2,
		ReadmitAfter:   2,
		MaxRetries:     4,
		HedgeDelayMax:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	gwSrv := startChaosGateway(t, g)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Drain(ctx); err != nil {
			t.Errorf("gateway drain: %v", err)
		}
		for _, r := range reps {
			r.s.Drain(ctx)
			r.srv.Close()
		}
	}()

	var victim ReplicaStatus
	for _, rs := range g.Snapshot() {
		if rs.URL == reps[1].url() {
			victim = rs
		}
	}
	if victim.Name == "" {
		t.Fatal("victim replica missing from the snapshot")
	}
	sumServed := func() uint64 {
		var n uint64
		for _, rs := range g.Snapshot() {
			n += rs.Served
		}
		return n
	}
	waitServed := func(min uint64) {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); sumServed() < min; {
			if time.Now().After(deadline) {
				t.Fatalf("cluster stuck at %d served scans, want %d", sumServed(), min)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitVictimState := func(want string) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); ; {
			if st := g.replicaByName(victim.Name).status(); st.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never became %s: %+v",
					victim.Name, want, g.replicaByName(victim.Name).status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	const requests = 400
	loadDone := make(chan chaosReport, 1)
	go func() { loadDone <- chaosLoad(gwSrv, requests, chaosVolumes(4), 7) }()

	// Let traffic reach steady state, then yank a replica out.
	waitServed(50)
	reps[1].kill(t)
	waitVictimState("ejected")

	// Traffic keeps flowing on the survivors while the victim is down.
	killedAt := sumServed()
	waitServed(killedAt + 100)

	// Restart on the same address: the half-open prober readmits it.
	reps[1] = startChaosReplica(t, reps[1].addr)
	waitVictimState("healthy")

	rep := <-loadDone
	if rep.failed != 0 {
		t.Fatalf("client saw %d failed scans through the crash, want 0 (report %+v)", rep.failed, rep)
	}
	if rep.completed != requests {
		t.Fatalf("completed %d of %d scans", rep.completed, requests)
	}
	if got := ejectionsTotal.Value() - ejectionsBefore; got == 0 {
		t.Fatal("the crash never ejected the replica")
	}
	if got := readmitsTotal.Value() - readmitsBefore; got == 0 {
		t.Fatal("the restart never readmitted the replica")
	}

	// The readmitted replica takes traffic again.
	// Distinct volumes: affinity would pin one repeated body to a single
	// owner, never exercising the restarted replica.
	extra := uniqueVolumes(200)
	servedAtRestart := g.replicaByName(victim.Name).status().Served
	for i := 0; i < len(extra); i++ {
		resp, view := postScan(t, gwSrv, scanBody(t, extra[i]))
		if resp.StatusCode != http.StatusOK || view.State != serve.StateDone {
			t.Fatalf("post-restart scan %d: status %d view %+v", i, resp.StatusCode, view)
		}
		if g.replicaByName(victim.Name).status().Served > servedAtRestart {
			return
		}
	}
	t.Fatal("restarted replica never served a scan again")
}

// startChaosGateway serves a started Gateway on a real listener and
// returns its base URL (shutdown is the caller's drain + this cleanup).
func startChaosGateway(t *testing.T, g *Gateway) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: g.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return "http://" + ln.Addr().String()
}

// chaosReport counts the outcomes of a chaosLoad run.
type chaosReport struct{ completed, failed int }

// chaosLoad is the chaos tests' closed-loop client: n scans over 8
// clients POSTed through the synchronous gateway, each a volume from
// vols (cycled) with one voxel nudged by up to ±1 HU from a per-client
// RNG, so every submission is unique and none is a cache hit. 429 and
// 503 + Retry-After are backpressure and are retried after 2 ms; any
// other answer that is not 200 with a done scan counts as failed.
func chaosLoad(url string, n int, vols []*volume.Volume, seed int64) chaosReport {
	const clients = 8
	var (
		mu  sync.Mutex
		rep chaosReport
		wg  sync.WaitGroup
	)
	next := make(chan int)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := range next {
				ok := chaosScan(url, vols[i%len(vols)], rng)
				mu.Lock()
				if ok {
					rep.completed++
				} else {
					rep.failed++
				}
				mu.Unlock()
			}
		}(rand.New(rand.NewSource(seed + int64(c))))
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return rep
}

// chaosScan submits one perturbed copy of v and reports whether it
// completed.
func chaosScan(url string, v *volume.Volume, rng *rand.Rand) bool {
	data := append([]float32(nil), v.Data...)
	data[rng.Intn(len(data))] += float32(rng.Float64()*2 - 1)
	body, err := json.Marshal(serve.ScanRequest{D: v.D, H: v.H, W: v.W, Data: data})
	if err != nil {
		return false
	}
	for {
		resp, err := http.Post(url+"/v1/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			return false
		}
		var view serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests &&
			(resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "") {
			return resp.StatusCode == http.StatusOK && err == nil && view.State == serve.StateDone
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// chaosVolumes builds n distinct small volumes sized so scans are quick
// but non-trivial.
func chaosVolumes(n int) []*volume.Volume {
	vols := make([]*volume.Volume, n)
	for i := range vols {
		v := volume.New(2, 8, 8)
		for j := range v.Data {
			v.Data[j] = float32((i + 1) * (j + 1) % 97)
		}
		vols[i] = v
	}
	return vols
}

// chaosDeepVolumes builds n distinct volumes deep enough to trip the
// sharded path (16 slices against a ShardSlices of 4).
func chaosDeepVolumes(n int) []*volume.Volume {
	vols := make([]*volume.Volume, n)
	for i := range vols {
		v := volume.New(16, 8, 8)
		for j := range v.Data {
			v.Data[j] = float32((i+3)*(j+1)%131 - 65)
		}
		vols[i] = v
	}
	return vols
}

// TestChaosShardedReplicaKillMidScan is the sharded chaos acceptance
// test: with scatter/gather sharding on, a replica killed abruptly
// while chunks are in flight must cost re-dispatched chunks (or at
// worst an unsharded fallback), never a client-visible failure — and
// every sharded result still matches the unsharded one bit-for-bit
// (covered by the property tests; here the invariant under fire is
// zero failures).
func TestChaosShardedReplicaKillMidScan(t *testing.T) {
	// A deliberately slow identity enhancer keeps chunks in flight long
	// enough for the kill to land mid-scatter.
	slowCfg := func() serve.Config {
		return serve.Config{
			Workers: 2, QueueDepth: 64, CacheSize: -1,
			Process: stubProcess(time.Millisecond),
			Enhance: func(v *volume.Volume) *volume.Volume {
				time.Sleep(3 * time.Millisecond)
				return v
			},
		}
	}
	reps := []*chaosReplica{
		startChaosReplicaCfg(t, "", slowCfg()),
		startChaosReplicaCfg(t, "", slowCfg()),
		startChaosReplicaCfg(t, "", slowCfg()),
	}
	urls := []string{reps[0].url(), reps[1].url(), reps[2].url()}
	ejectionsBefore := ejectionsTotal.Value()
	shardScansBefore := shardScansTotal.Value()
	shardChunksBefore := shardChunksTotal.Value()

	g, err := New(Config{
		Replicas:         urls,
		HealthInterval:   20 * time.Millisecond,
		HealthTimeout:    500 * time.Millisecond,
		EjectAfter:       2,
		ReadmitAfter:     2,
		MaxRetries:       4,
		HedgeDelayMax:    250 * time.Millisecond,
		ShardSlices:      4,
		ShardChunkSlices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start()
	gwSrv := startChaosGateway(t, g)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := g.Drain(ctx); err != nil {
			t.Errorf("gateway drain: %v", err)
		}
		for _, r := range reps {
			r.s.Drain(ctx)
			r.srv.Close()
		}
	}()

	var victim ReplicaStatus
	for _, rs := range g.Snapshot() {
		if rs.URL == reps[1].url() {
			victim = rs
		}
	}
	if victim.Name == "" {
		t.Fatal("victim replica missing from the snapshot")
	}
	sumServed := func() uint64 {
		var n uint64
		for _, rs := range g.Snapshot() {
			n += rs.Served
		}
		return n
	}
	waitServed := func(min uint64) {
		t.Helper()
		for deadline := time.Now().Add(60 * time.Second); sumServed() < min; {
			if time.Now().After(deadline) {
				t.Fatalf("cluster stuck at %d served, want %d", sumServed(), min)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitVictimState := func(want string) {
		t.Helper()
		for deadline := time.Now().Add(15 * time.Second); ; {
			if st := g.replicaByName(victim.Name).status(); st.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never became %s: %+v",
					victim.Name, want, g.replicaByName(victim.Name).status())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	const requests = 200
	loadDone := make(chan chaosReport, 1)
	go func() { loadDone <- chaosLoad(gwSrv, requests, chaosDeepVolumes(4), 13) }()

	// Let sharded traffic reach steady state, then yank a replica out
	// while its chunks are in flight.
	waitServed(30)
	reps[1].kill(t)
	waitVictimState("ejected")

	killedAt := sumServed()
	waitServed(killedAt + 50)

	reps[1] = startChaosReplicaCfg(t, reps[1].addr, slowCfg())
	waitVictimState("healthy")

	rep := <-loadDone
	if rep.failed != 0 {
		t.Fatalf("client saw %d failed scans through the crash, want 0 (report %+v)", rep.failed, rep)
	}
	if rep.completed != requests {
		t.Fatalf("completed %d of %d scans", rep.completed, requests)
	}
	if got := ejectionsTotal.Value() - ejectionsBefore; got == 0 {
		t.Fatal("the crash never ejected the replica")
	}
	if got := shardScansTotal.Value() - shardScansBefore; got == 0 {
		t.Fatal("no scans took the sharded path")
	}
	if got := shardChunksTotal.Value() - shardChunksBefore; got == 0 {
		t.Fatal("no chunks were scattered")
	}
}
