// Package cluster is the multi-replica serving data plane: a gateway
// that fronts N ccserve replicas and turns them into one service. The
// paper's premise is that DDnet-based CT enhancement must be fast
// enough for clinical workflows (§1); ROADMAP's north star is serving
// heavy traffic from millions of users — which no single replica
// survives alone. The gateway adds the layer internal/serve stops at:
//
//   - a replica set with active health checking — /readyz probes,
//     ejection on consecutive failures, half-open probing so restarted
//     or drained replicas rejoin on their own, and a reloadable static
//     replica list (cmd/ccgate rereads it on SIGHUP);
//   - load-aware routing: power-of-two-choices over per-replica
//     inflight count and EWMA latency, with consistent-hash affinity on
//     the scan's SHA-256 content key so repeat scans land on the
//     replica whose LRU result cache already holds them;
//   - hedged requests — after an adaptive p95 delay a second attempt
//     fires at the next-best replica, the first response wins and the
//     loser is cancelled — plus bounded retries that honor upstream
//     Retry-After and the request deadline, so a replica dying mid-scan
//     is invisible to the client;
//   - graceful drain on both sides: a draining replica's /readyz flips
//     503 and the gateway ejects it, and the gateway's own Drain stops
//     admission and waits out in-flight scans.
//
// The gateway speaks the same /v1/scan API as a replica but
// synchronously: it submits, polls the replica to the terminal state,
// and answers 200 with the finished JobView — that is what makes
// transparent retry and hedging possible. It roots a gateway/request
// span per scan and propagates Traceparent to the replica, so one trace
// tree spans gateway → replica, and it exports cluster_* metrics
// (per-replica inflight, ejections, hedge wins, affinity hit rate).
package cluster

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"computecovid19/internal/obs"
	"computecovid19/internal/serve"
)

// Config assembles a Gateway. The zero value of every tuning field
// picks a sensible default (see New).
type Config struct {
	// Replicas is the initial replica URL list (e.g. "http://host:8844").
	// At least one is required; SetReplicas swaps the set at runtime.
	Replicas []string
	// HealthInterval is the active /readyz probe period; HealthTimeout
	// bounds each probe.
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// EjectAfter ejects a replica after that many consecutive failed
	// observations; ReadmitAfter readmits an ejected replica after that
	// many consecutive successful probes (half-open recovery).
	EjectAfter   int
	ReadmitAfter int
	// MaxRetries bounds additional attempts after the first (hedges not
	// counted). Negative disables retries.
	MaxRetries int
	// Hedging: a second attempt fires after an adaptive delay — the p95
	// of observed attempt latencies, floored at HedgeDelayMin; until
	// HedgeMinSamples attempts have been observed the delay stays at
	// HedgeDelayMax. A p95 beyond HedgeDelayMax pauses hedging entirely:
	// a uniformly slow cluster is saturated, and hedges would feed the
	// overload they are reacting to. DisableHedging turns it off.
	DisableHedging  bool
	HedgeDelayMin   time.Duration
	HedgeDelayMax   time.Duration
	HedgeMinSamples int
	// AffinityMaxInflight is the overload guard on cache-affine routing:
	// when the consistent-hash owner already has this many scans in
	// flight, the scan falls through to power-of-two-choices.
	AffinityMaxInflight int64
	// VNodes is each replica's virtual-node count on the hash ring.
	VNodes int
	// PollInterval is the replica result-poll period.
	PollInterval time.Duration
	// DefaultDeadline bounds scans that carry no deadline_ms of their
	// own; the deadline caps retries, hedges, and polling combined.
	DefaultDeadline time.Duration
	// Seed derives the router's RNG (deterministic tests).
	Seed int64

	// ShardSlices enables scatter/gather slice sharding for scans at
	// least that many slices deep (0 disables sharding entirely). A
	// sharded scan's enhancement is split into chunk-range /v1/enhance
	// calls fanned out across healthy replicas, reassembled in slice
	// order, and then submitted pre-enhanced for segment+classify —
	// bit-identical to the unsharded path because per-slice forwards are
	// independent. Sharding needs ≥ 2 healthy replicas; below that scans
	// route whole.
	ShardSlices int
	// ShardChunkSlices fixes the chunk size in slices; 0 derives it from
	// ShardEnhanceSlice or, when that is 0, uses an even split of two
	// chunks per healthy replica.
	ShardChunkSlices int
	// ShardEnhanceSlice is a replica's measured per-slice enhancement
	// time and ShardChunkOverhead the fixed cost of one chunk's
	// /v1/enhance round trip. With ShardEnhanceSlice set, the chunk size
	// is the one minimizing the predicted enhancement makespan across
	// the live healthy replica count (see shardChunkSlices).
	ShardEnhanceSlice  time.Duration
	ShardChunkOverhead time.Duration
}

// Gateway is a running (or startable) cluster front end.
type Gateway struct {
	cfg Config

	mu       sync.Mutex // guards replicas, ring, seq, rng
	replicas []*replica
	ring     []ringPoint
	seq      int
	rng      *rand.Rand

	// attemptLat feeds the adaptive hedge delay for whole-scan attempts;
	// chunkLat does the same for chunk-range enhance attempts. They are
	// separate because the two call classes live on different latency
	// scales, and free-standing so one gateway's profile never pools
	// with another's.
	attemptLat *obs.Histogram
	chunkLat   *obs.Histogram

	// maxVoxels bounds how much request body the gateway buffers and
	// the volume dimensions it accepts. It has no admission limit of its
	// own, so it refuses what no replica with serve's default limit
	// would admit.
	maxVoxels int

	gate     sync.RWMutex // guards draining flips vs. admission
	draining bool
	inflight sync.WaitGroup

	stopOnce sync.Once
	stopc    chan struct{}
}

// New builds a Gateway from cfg, applying defaults. Call Start to begin
// health checking.
func New(cfg Config) (*Gateway, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("cluster: Config needs at least one replica URL")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = 2 * time.Second
	}
	if cfg.EjectAfter <= 0 {
		cfg.EjectAfter = 3
	}
	if cfg.ReadmitAfter <= 0 {
		cfg.ReadmitAfter = 2
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 3
	}
	if cfg.HedgeDelayMin <= 0 {
		cfg.HedgeDelayMin = 2 * time.Millisecond
	}
	if cfg.HedgeDelayMax <= 0 {
		cfg.HedgeDelayMax = time.Second
	}
	if cfg.HedgeMinSamples <= 0 {
		cfg.HedgeMinSamples = 16
	}
	if cfg.AffinityMaxInflight <= 0 {
		cfg.AffinityMaxInflight = 8
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 64
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 2 * time.Millisecond
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 2 * time.Minute
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	g := &Gateway{
		cfg:        cfg,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		attemptLat: obs.NewHistogram(nil),
		chunkLat:   obs.NewHistogram(nil),
		maxVoxels:  serve.DefaultMaxVoxels,
		stopc:      make(chan struct{}),
	}
	if err := g.SetReplicas(cfg.Replicas); err != nil {
		return nil, err
	}
	return g, nil
}

// Start launches the health-check loop.
func (g *Gateway) Start() {
	go g.healthLoop()
}

// SetReplicas swaps the replica set for the given URL list — the SIGHUP
// reload path. Replicas whose URL stays keep their identity, health
// state, and latency profile; new URLs join healthy (the health loop
// ejects them promptly if they are not); removed replicas finish their
// in-flight attempts and are forgotten.
func (g *Gateway) SetReplicas(urls []string) error {
	if len(urls) == 0 {
		return fmt.Errorf("cluster: replica list must not be empty")
	}
	seen := make(map[string]bool, len(urls))
	cleaned := make([]string, 0, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" || seen[u] {
			return fmt.Errorf("cluster: empty or duplicate replica URL in %v", urls)
		}
		seen[u] = true
		cleaned = append(cleaned, u)
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	byURL := make(map[string]*replica, len(g.replicas))
	for _, r := range g.replicas {
		byURL[r.url] = r
	}
	next := make([]*replica, 0, len(cleaned))
	for _, u := range cleaned {
		if r, ok := byURL[u]; ok {
			next = append(next, r)
			continue
		}
		r := newReplica(fmt.Sprintf("r%d", g.seq), u)
		g.seq++
		next = append(next, r)
	}
	g.replicas = next
	g.ring = buildRing(next, g.cfg.VNodes)
	reloadsTotal.Inc()
	return nil
}

// snapshotReplicas returns the current replica slice (the slice is
// replaced wholesale on reload, never mutated, so the snapshot is safe
// to iterate without the lock).
func (g *Gateway) snapshotReplicas() []*replica {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.replicas
}

func (g *Gateway) replicaByName(name string) *replica {
	for _, r := range g.snapshotReplicas() {
		if r.name == name {
			return r
		}
	}
	return nil
}

// Snapshot returns the ops view of every replica.
func (g *Gateway) Snapshot() []ReplicaStatus {
	reps := g.snapshotReplicas()
	out := make([]ReplicaStatus, len(reps))
	for i, r := range reps {
		out[i] = r.status()
	}
	return out
}

// Drain stops admission (readyz and new scans answer 503), waits for
// in-flight scans to finish, and stops the health loop. It returns
// ctx.Err when the context expires first.
func (g *Gateway) Drain(ctx context.Context) error {
	g.gate.Lock()
	g.draining = true
	g.gate.Unlock()
	g.stopOnce.Do(func() { close(g.stopc) })

	done := make(chan struct{})
	go func() {
		g.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (g *Gateway) Draining() bool {
	g.gate.RLock()
	defer g.gate.RUnlock()
	return g.draining
}

// Handler returns the gateway HTTP API:
//
//	POST /v1/scan      submit a volume; routed, hedged, retried; answers
//	                   200 with the terminal JobView (id is "<id>@<replica>")
//	GET  /v1/scan/{id} re-fetch a finished scan from its owning replica
//	GET  /v1/replicas  replica set with health, inflight, EWMA latency
//	GET  /healthz      liveness
//	GET  /readyz       readiness (503 while draining or with no healthy replica)
//	GET  /metrics      Prometheus exposition of the obs registry
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", g.handleScan)
	mux.HandleFunc("GET /v1/scan/{id}", g.handleGet)
	mux.HandleFunc("GET /v1/replicas", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, g.Snapshot())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if g.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		healthy := 0
		for _, r := range g.snapshotReplicas() {
			if r.healthy() {
				healthy++
			}
		}
		if healthy == 0 {
			http.Error(w, "no healthy replicas", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintf(w, "ready (%d healthy replicas)\n", healthy)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default.WritePrometheus(w)
	})
	return mux
}

// contentKey is the scan's content address for affinity routing:
// SHA-256 over dimensions and raw voxel bits. Unlike the replica-side
// cache key it omits the model version — the cluster assumes one model
// across replicas, and the key only has to be stable, not collision-
// proof against redeploys.
func contentKey(req *serve.ScanRequest) string {
	var dims [12]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(req.D))
	binary.LittleEndian.PutUint32(dims[4:], uint32(req.H))
	binary.LittleEndian.PutUint32(dims[8:], uint32(req.W))
	return serve.VoxelKey(req.Data, dims[:])
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
