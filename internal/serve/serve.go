// Package serve is the batched inference server that puts the
// ComputeCOVID19+ pipeline behind an HTTP/JSON API. The paper's headline
// claim is workflow acceleration — days of RT-PCR turnaround replaced by
// a minutes-long CT pipeline (§1, Figure 4) — and ROADMAP's north star
// is a production-scale system serving heavy traffic, so this package
// multiplexes many concurrent scans onto the warm pipeline that
// cmd/ccovid only reaches one scan at a time:
//
//   - a bounded admission queue with backpressure (429 + Retry-After
//     when full), per-request deadlines, and graceful drain on shutdown;
//   - a worker pool sharing one warm core.Pipeline (weights are
//     read-only after Pipeline.Warm, so replicas share storage);
//   - a micro-batching scheduler that groups enhancement slices from
//     concurrent scans into batched DDnet forward passes — the same
//     fill-or-timeout batching model internal/workflow uses for RT-PCR
//     thermocycler plates, now applied to the GPU-style batch economics
//     of the enhancement network;
//   - a content-addressed LRU result cache keyed by volume hash + model
//     version, so re-submitted scans return in O(1).
//
// Every queue, batch, and cache decision reports into internal/obs
// (queue-depth gauge, admission/rejection counters, batch-size and
// end-to-end latency histograms). The server's throughput and latency
// are measured by the serve.scan and serve.cached workloads of the
// repository's benchmark (bench/).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"computecovid19/internal/core"
	"computecovid19/internal/kernels"
	"computecovid19/internal/memplan"
	"computecovid19/internal/obs"
	"computecovid19/internal/volume"
)

// Config assembles a Server. The zero value of every tuning field picks
// a sensible default (see New).
type Config struct {
	// Pipeline is the warm diagnostic pipeline. New calls Warm on it, so
	// the worker pool can share its weights without racing.
	Pipeline *core.Pipeline
	// Workers is the number of concurrent segment+classify workers.
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it get
	// 429 + Retry-After.
	QueueDepth int
	// BatchSize is the micro-batch fill target for DDnet enhancement
	// slices; BatchTimeout fires a partial batch so a lone scan is never
	// stuck waiting for traffic.
	BatchSize    int
	BatchTimeout time.Duration
	// CacheSize is the result-cache capacity in entries; negative
	// disables caching.
	CacheSize int
	// ModelVersion is folded into cache keys so a redeploy with new
	// weights never serves stale results.
	ModelVersion string
	// DefaultDeadline bounds jobs that do not carry their own
	// deadline_ms; zero means no default deadline.
	DefaultDeadline time.Duration
	// MaxVoxels rejects oversized volumes at admission (413).
	MaxVoxels int
	// Process overrides the pipeline backend — the seam load tests and
	// custom models plug into. When set, Pipeline may be nil and
	// micro-batching is bypassed.
	Process func(v *volume.Volume) core.Result
	// Enhance overrides the enhancement stage everywhere it runs — the
	// chunk-range endpoint (POST /v1/enhance) and the scan path's
	// pre-process enhancement — the seam chaos tests and calibrated
	// benches plug into, parallel to Process for segment+classify. When
	// nil, enhancement uses the pipeline (micro-batched when enabled),
	// or passes the input through when no enhancer exists.
	Enhance func(v *volume.Volume) *volume.Volume
	// EnhanceConcurrency bounds concurrent chunk-range enhancements;
	// excess requests get 429 + Retry-After so the gateway re-dispatches
	// the chunk elsewhere. Defaults to 4× Workers.
	EnhanceConcurrency int
	// SLO configures the /v1/scan latency and availability objectives
	// (zero fields pick obs.NewSLO's serving defaults). Budget-remaining
	// and burn-rate gauges are recomputed on every /metrics scrape.
	SLO obs.SLOConfig
	// FlightDir, when set, receives flight-recorder dumps for
	// deadline-exceeded requests and 5xx responses; empty disables dumps.
	FlightDir string
}

// ScanResult is the diagnostic outcome returned to clients and stored
// in the result cache.
type ScanResult struct {
	Probability float64 `json:"probability"`
	Positive    bool    `json:"positive"`
}

// Server is a running (or startable) inference server.
type Server struct {
	cfg     Config
	store   *store
	cache   *resultCache
	batcher *batcher
	slo     *obs.SLO

	// Chunk-range enhancement state: a free list of per-request arenas
	// (the batcher path stages slices from one) and the inflight count
	// behind the EnhanceConcurrency admission bound.
	enhArenas   sync.Pool
	enhInflight atomic.Int64

	queue chan *job
	gate  sync.RWMutex // guards queue close vs. admission sends
	shut  bool

	wg       sync.WaitGroup
	draining bool
	drainMu  sync.Mutex
}

// New builds a Server from cfg, applying defaults, warming the pipeline,
// and validating that a backend exists. Call Start to launch the worker
// pool.
func New(cfg Config) (*Server, error) {
	if cfg.Pipeline == nil && cfg.Process == nil {
		return nil, fmt.Errorf("serve: Config needs a Pipeline or a Process backend")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 8
	}
	if cfg.BatchTimeout <= 0 {
		cfg.BatchTimeout = 2 * time.Millisecond
	}
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 256
	}
	if cfg.ModelVersion == "" {
		cfg.ModelVersion = "v0"
	}
	if cfg.MaxVoxels <= 0 {
		cfg.MaxVoxels = DefaultMaxVoxels
	}
	if cfg.EnhanceConcurrency <= 0 {
		cfg.EnhanceConcurrency = 4 * cfg.Workers
	}
	s := &Server{
		cfg:   cfg,
		store: newStore(),
		cache: newResultCache(cfg.CacheSize),
		queue: make(chan *job, cfg.QueueDepth),
		slo:   obs.NewSLO(cfg.SLO),
	}
	s.enhArenas.New = func() any { return memplan.New() }
	obs.NewBuildInfo(kernels.Names()).Register()
	if cfg.Pipeline != nil {
		cfg.Pipeline.Warm()
		if cfg.Process == nil && cfg.Pipeline.Enhancer != nil {
			s.batcher = newBatcher(cfg.Pipeline.Enhancer, cfg.BatchSize, cfg.BatchTimeout)
		}
	}
	return s, nil
}

// Start launches the worker pool and (when enhancement is enabled) the
// micro-batching scheduler.
func (s *Server) Start() {
	if s.batcher != nil {
		go s.batcher.run()
	}
	s.wg.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
}

// Drain stops admission, lets every accepted job finish, and shuts the
// batcher down. It returns ctx.Err when the context expires first; the
// workers keep finishing in the background in that case.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	s.gate.Lock()
	if !s.shut {
		s.shut = true
		close(s.queue)
	}
	s.gate.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		if s.batcher != nil {
			s.batcher.stop()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has begun (readiness turns false).
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// Handler returns the HTTP API:
//
//	POST /v1/scan      submit a volume; 202 + job id (200 on cache hit)
//	GET  /v1/scan/{id} poll a job
//	GET  /healthz      liveness
//	GET  /readyz       readiness (503 while draining)
//	GET  /metrics      Prometheus exposition of the obs registry
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/scan", s.handleSubmit)
	mux.HandleFunc("POST /v1/enhance", s.handleEnhance)
	mux.HandleFunc("GET /v1/scan/{id}", s.handleGet)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		s.slo.Export()
		memplan.SampleRuntime() // refresh mem_* gauges at scrape time
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		obs.Default.WritePrometheus(w)
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// The request root span ("serve/request") covers the scan end to
	// end — it outlives this handler and is ended by the worker at the
	// job's terminal state. The "serve/http" child covers only the
	// submit round-trip. An inbound traceparent header continues the
	// caller's trace; the response header carries ours either way.
	ctx := r.Context()
	if sc, ok := obs.ParseTraceparent(r.Header.Get("Traceparent")); ok {
		ctx = obs.ContextWithRemote(ctx, sc)
	}
	ctx, reqSp := obs.StartCtx(ctx, "serve/request")
	if tp := reqSp.Traceparent(); tp != "" {
		w.Header().Set("Traceparent", tp)
	}
	_, hsp := obs.StartCtx(ctx, "serve/http")
	start := time.Now()
	// endHere terminates the trace at the HTTP layer (non-admitted
	// outcomes); 5xx responses dump the just-completed trace.
	endHere := func(code int) {
		hsp.End()
		reqSp.End()
		if code >= 500 {
			s.slo.Observe(time.Since(start), true)
			if s.cfg.FlightDir != "" {
				obs.DumpFlightTrace(s.cfg.FlightDir, reqSp.TraceID(), fmt.Sprintf("http %d", code))
			}
		}
	}

	if s.Draining() {
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		endHere(http.StatusServiceUnavailable)
		return
	}
	var req ScanRequest
	LimitBody(w, r, s.cfg.MaxVoxels)
	body, err := ReadScan(r.Body, &req)
	if err != nil {
		code := BodyErrorStatus(err)
		httpError(w, code, "bad json: %v", err)
		endHere(code)
		return
	}
	body.Release()
	if code, err := req.CheckDims(s.cfg.MaxVoxels); err != nil {
		httpError(w, code, "%v", err)
		endHere(code)
		return
	}

	vol := &volume.Volume{D: req.D, H: req.H, W: req.W, Data: req.Data}
	key := s.cacheKey(vol, req.PreEnhanced)
	if res, ok := s.cache.get(key); ok {
		cacheHits.Inc()
		j := s.store.newJob(vol, key, time.Time{})
		s.store.finishCached(j, res)
		w.Header().Set("X-Cache", "hit")
		writeJSON(w, http.StatusOK, s.store.view(j))
		endHere(http.StatusOK)
		s.slo.Observe(time.Since(start), false)
		return
	}
	cacheMisses.Inc()

	var deadline time.Time
	switch {
	case req.DeadlineMS > 0:
		deadline = time.Now().Add(time.Duration(req.DeadlineMS) * time.Millisecond)
	case s.cfg.DefaultDeadline > 0:
		deadline = time.Now().Add(s.cfg.DefaultDeadline)
	}
	j := s.store.newJob(vol, key, deadline)
	j.preEnhanced = req.PreEnhanced
	// Detach the trace from the HTTP context: processing must survive
	// the client hanging up on the 202. The queue span is opened before
	// the enqueue so the worker can never dequeue a job without one.
	j.ctx = obs.ContextWithSpan(context.Background(), reqSp)
	j.span = reqSp
	_, j.qspan = obs.StartCtx(j.ctx, "serve/queue")

	s.gate.RLock()
	if s.shut {
		s.gate.RUnlock()
		s.store.drop(j)
		http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		j.qspan.End()
		endHere(http.StatusServiceUnavailable)
		return
	}
	admitted := false
	select {
	case s.queue <- j:
		admitted = true
	default:
	}
	s.gate.RUnlock()

	if !admitted {
		s.store.drop(j)
		rejectedTotal.Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "admission queue full (%d deep)", s.cfg.QueueDepth)
		j.qspan.End()
		endHere(http.StatusTooManyRequests)
		return
	}
	admittedTotal.Inc()
	queueDepth.Add(1)
	// The gateway's cache-affine router measures its end-to-end affinity
	// hit rate off this header, so the miss case is announced too.
	w.Header().Set("X-Cache", "miss")
	writeJSON(w, http.StatusAccepted, s.store.view(j))
	hsp.End()
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.store.viewByID(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown scan %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// cacheKey is the content address of a volume under the current model:
// SHA-256 over model version, dimensions, the pre-enhanced flag, and the
// raw voxel bits. The flag keeps a raw volume whose bytes happen to
// equal an enhanced one (identity enhancers, no-op windows) from
// aliasing its cached result.
func (s *Server) cacheKey(v *volume.Volume, preEnhanced bool) string {
	var dims [13]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(v.D))
	binary.LittleEndian.PutUint32(dims[4:], uint32(v.H))
	binary.LittleEndian.PutUint32(dims[8:], uint32(v.W))
	if preEnhanced {
		dims[12] = 1
	}
	return VoxelKey(v.Data, []byte(s.cfg.ModelVersion), dims[:])
}

// VoxelKey is the hex SHA-256 of the prefix parts followed by the raw
// little-endian bits of data. The voxels stream through a fixed 4 KiB
// stack buffer, so hashing a scan never copies it. The result cache key
// and the cluster gateway's content key are both VoxelKeys.
func VoxelKey(data []float32, prefix ...[]byte) string {
	h := sha256.New()
	for _, p := range prefix {
		h.Write(p)
	}
	var buf [4096]byte
	for len(data) > 0 {
		n := min(len(data), len(buf)/4)
		for i, x := range data[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		h.Write(buf[:4*n])
		data = data[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
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
