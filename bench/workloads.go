package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"computecovid19/internal/classify"
	"computecovid19/internal/cluster"
	"computecovid19/internal/core"
	"computecovid19/internal/dataset"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/serve"
	"computecovid19/internal/volume"
)

// Volume shapes. std is the serving demo scan; deep has the slice count
// the gateway shards (ShardSlices 16) at a quarter of the area, so both
// hold a similar number of voxels.
type shape struct{ d, size int }

var (
	std  = shape{8, 64}
	deep = shape{24, 32}
)

// A workload is one path a scan volume can take through the program. The
// one-line reason each exists is in BENCHMARK.json; the README has the
// longer account.
type workload struct {
	name    string
	shape   shape
	clients int // closed-loop callers: 1 in-process caller, or nproc HTTP clients
	warmup  int // untimed ops at the end of set-up
	// unique gives every op its own perturbed volume, so the result cache
	// always misses; otherwise ops cycle over the cohort's base volumes.
	unique bool
	// preEnhanced feeds ops the reference pipeline's enhancement of each
	// volume rather than the volume itself.
	preEnhanced bool
	// mustHit fails any timed op the result cache did not answer.
	mustHit bool
	// split names, for a span that hides several layers, the probes of the
	// layers it ran; the budget lists those in the span's place.
	split map[string][]string
	// gateway reports the budget's residual as gateway_residual_ms too.
	gateway bool
	start   func() (*rig, error)
	// op runs one scan as caller tid, recording its calls under root.
	op func(r *rig, in *volume.Volume, rec *recorder, root, tid int) result
	// reference is the answer op must give for a volume, worked out
	// in-process on a pipeline of the same commit.
	reference func(p *core.Pipeline, v *volume.Volume) float64
}

func refEnhance(p *core.Pipeline, v *volume.Volume) float64 {
	out := p.Enhance(v)
	defer p.RecycleVolume(out)
	return meanHU(out)
}

func refDiagnose(p *core.Pipeline, v *volume.Volume) float64 {
	r := p.Diagnose(v)
	defer p.RecycleResult(r)
	defer p.RecycleVolume(r.Enhanced)
	return r.Probability
}

func workloads() []workload {
	n := runtime.NumCPU()
	wire := []string{"wire_decode", "key_hash"}
	compute := []string{"enhance", "segment", "classify"}
	return []workload{
		{name: "enhance.direct", shape: std, clients: 1, warmup: 8,
			start: startDirect, op: opEnhance, reference: refEnhance},
		{name: "classify.direct", shape: std, clients: 1, warmup: 8, preEnhanced: true,
			split: map[string][]string{"Classify": {"segment", "classify"}},
			start: startDirect, op: opClassify, reference: refDiagnose},
		{name: "serve.scan", shape: std, clients: n, warmup: 8, unique: true,
			split: map[string][]string{"submit": wire, "server": compute},
			start: startServer, op: opScan, reference: refDiagnose},
		{name: "serve.cached", shape: std, clients: n, warmup: 40, mustHit: true,
			split: map[string][]string{"submit": wire},
			start: startServer, op: opScan, reference: refDiagnose},
		{name: "gate.shard", shape: deep, clients: n, warmup: 6, unique: true, gateway: true,
			split: map[string][]string{"submit": append(wire, compute...)},
			start: startGateway, op: opScan, reference: refDiagnose},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// cohortSize is how many base volumes the seed generates per workload.
const cohortSize = 4

// inputs are a workload's scan volumes, a pure function of the seed. The
// program under test only ever sees volumes.
type inputs struct {
	seed   int64
	unique bool
	base   []*volume.Volume
}

func makeInputs(w workload, seed int64) *inputs {
	cfg := dataset.DefaultCohortConfig()
	cfg.Count, cfg.Depth, cfg.Size, cfg.Seed = cohortSize, w.shape.d, w.shape.size, seed
	in := &inputs{seed: seed, unique: w.unique}
	for _, c := range dataset.BuildCohort(cfg) {
		in.base = append(in.base, c.Volume)
	}
	return in
}

// key names the distinct volume op i submits: ops with equal keys submit
// equal volumes and share one reference answer.
func (in *inputs) key(i int) int {
	if in.unique {
		return i
	}
	return i % len(in.base)
}

// volume returns the volume with the given key. Unique volumes are the
// base volume with 16 voxels moved by up to ±1 HU, from a generator seeded
// by (seed, key) so that any op's input can be rebuilt for checking.
func (in *inputs) volume(key int) *volume.Volume {
	b := in.base[key%len(in.base)]
	if !in.unique {
		return b
	}
	v := b.Clone()
	rng := rand.New(rand.NewSource(in.seed*1_000_003 + int64(key)))
	for k := 0; k < 16; k++ {
		v.Data[rng.Intn(len(v.Data))] += float32(rng.Float64()*2 - 1)
	}
	return v
}

// modelSeed fixes the weights: the model is part of the program, not of
// the workload, so it does not follow -seed.
const modelSeed = 1

// newPipeline builds the demo-scale models the serving benches have always
// used (ddnet.TinyConfig, classify.SmallConfig) with one change: the
// classifier's InitStd is 0.15 rather than 0.05. With untrained 0.05
// weights every scan scores 0.5 ± 1e-6 and the correctness check could not
// tell one volume's answer from another's; at 0.15 the cohort's scores are
// 1e-4 apart. The arithmetic done per scan is the same.
func newPipeline() *core.Pipeline {
	rng := rand.New(rand.NewSource(modelSeed))
	cc := classify.SmallConfig()
	cc.InitStd = 0.15
	p := core.NewPipeline(ddnet.New(rng, ddnet.TinyConfig()), classify.New(rng, cc))
	p.Warm()
	return p
}

// rig is one started instance of the program: a warm pipeline for the
// direct workloads, plus a listening server or gateway for the others.
type rig struct {
	p       *core.Pipeline // direct workloads only
	url     string
	clients []*http.Client                // one per closed-loop caller, each on its own connection
	stops   []func(context.Context) error // in the order to call them
}

func (r *rig) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var first error
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	for _, s := range r.stops {
		if err := s(ctx); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func startDirect() (*rig, error) { return &rig{p: newPipeline()}, nil }

// listen serves h on a loopback port and returns its URL once /readyz
// answers. The stop it appends runs after the handler's owner has drained,
// so it closes the listener and connections outright (Shutdown would wait
// five seconds on any connection dialled but never used) and returns
// after the accept loop has ended.
func (r *rig) listen(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(l) // always ErrServerClosed: Close below is the only way out
	}()
	r.stops = append(r.stops, func(context.Context) error {
		err := srv.Close()
		<-done
		return err
	})
	url := "http://" + l.Addr().String()
	for i := 0; ; i++ {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return url, nil
			}
		}
		if i == 200 {
			return "", fmt.Errorf("%s not ready: %v", url, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// replica starts one serve.Server over its own pipeline and appends its
// stops so that the server drains before its listener closes.
//
// EnhanceConcurrency is the one serve setting that is not the shipped
// default (4 × Workers). gate.shard keeps nproc scans × 4 chunks in flight
// over 2 replicas with Workers 1, which is exactly that default when the
// chunks spread evenly: one chunk off balance draws a 429 whose
// Retry-After costs the scan a fixed second. That happened in about one
// 10 s run in four and moved its scans_per_s by 5 to 10 %, so the replicas
// admit every chunk the benchmark can have in flight; rejected_429,
// retries and redispatches still count any that are refused.
func (r *rig) replica(workers int) (string, error) {
	s, err := serve.New(serve.Config{Pipeline: newPipeline(), Workers: workers, BatchSize: 8,
		EnhanceConcurrency: 4 * runtime.NumCPU()})
	if err != nil {
		return "", err
	}
	s.Start()
	r.stops = append(r.stops, s.Drain)
	return r.listen(s.Handler())
}

func startServer() (*rig, error) {
	r := &rig{}
	var err error
	r.url, err = r.replica(runtime.NumCPU())
	return r, err
}

func startGateway() (*rig, error) {
	r := &rig{}
	var urls []string
	for i := 0; i < 2; i++ {
		u, err := r.replica(1)
		if err != nil {
			return r, err
		}
		urls = append(urls, u)
	}
	g, err := cluster.New(cluster.Config{Replicas: urls, ShardSlices: 16, ShardChunkSlices: 6})
	if err != nil {
		return r, err
	}
	g.Start()
	// The gateway drains first, then each replica, then the listeners.
	r.stops = append([]func(context.Context) error{g.Drain}, r.stops...)
	r.url, err = r.listen(g.Handler())
	return r, err
}

// result is what one op hands back for checking and counting.
type result struct {
	answer   float64 // probability, or mean enhanced HU for enhance.direct
	cached   bool
	polls    int
	rejected int     // 429/503 answers retried
	serverMS float64 // JobView.elapsed_ms
	err      error
}

func meanHU(v *volume.Volume) float64 {
	var s float64
	for _, x := range v.Data {
		s += float64(x)
	}
	return s / float64(len(v.Data))
}

func opEnhance(r *rig, in *volume.Volume, rec *recorder, root, _ int) result {
	out := r.p.GetVolume(in.D, in.H, in.W)
	sp := rec.begin("EnhanceInto", root)
	r.p.EnhanceInto(context.Background(), in, out)
	rec.end(sp)
	res := result{answer: meanHU(out)}
	r.p.RecycleVolume(out)
	return res
}

// opClassify takes a pre-enhanced volume.
func opClassify(r *rig, in *volume.Volume, rec *recorder, root, _ int) result {
	sp := rec.begin("Classify", root)
	res := r.p.Classify(in)
	rec.end(sp)
	sp = rec.begin("RecycleResult", root)
	r.p.RecycleResult(res)
	rec.end(sp)
	return result{answer: res.Probability}
}

const (
	pollInterval = 2 * time.Millisecond
	maxRejects   = 200 // bound on 429/503 retries per op
)

// opScan is a scan over the wire: encode, POST /v1/scan, then poll until
// the job is terminal. A cache hit and the synchronous gateway both
// answer the POST with a terminal view, so they never poll.
func opScan(r *rig, in *volume.Volume, rec *recorder, root, tid int) (res result) {
	c := r.clients[tid]
	sp := rec.begin("encode", root)
	body, err := json.Marshal(serve.ScanRequest{D: in.D, H: in.H, W: in.W, Data: in.Data})
	rec.end(sp)
	if err != nil {
		return result{err: err}
	}

	var view serve.JobView
	sp = rec.begin("submit", root)
	for {
		resp, err := c.Post(r.url+"/v1/scan", "application/json", bytes.NewReader(body))
		if err != nil {
			res.err = err
			break
		}
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			drain(resp)
			if res.rejected++; res.rejected > maxRejects {
				res.err = fmt.Errorf("submit: still refused after %d retries", maxRejects)
				break
			}
			time.Sleep(pollInterval)
			continue
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			res.err = fmt.Errorf("submit: status %d", resp.StatusCode)
		} else {
			res.err = json.NewDecoder(resp.Body).Decode(&view)
		}
		drain(resp)
		break
	}
	rec.end(sp)
	if res.err != nil {
		return res
	}

	if view.State != serve.StateDone && view.State != serve.StateFailed {
		wait := rec.begin("wait", root)
		for view.State != serve.StateDone && view.State != serve.StateFailed {
			time.Sleep(pollInterval)
			res.polls++
			resp, err := c.Get(r.url + "/v1/scan/" + view.ID)
			if err != nil {
				res.err = err
				break
			}
			res.err = json.NewDecoder(resp.Body).Decode(&view)
			drain(resp)
			if res.err != nil {
				break
			}
		}
		rec.end(wait)
		// The server's own account of the job, laid inside the wait: what
		// is left of the wait is the lag until a poll noticed the result.
		rec.child("server", wait, time.Duration(view.ElapsedMS*float64(time.Millisecond)))
		if res.err != nil {
			return res
		}
	}
	if view.State == serve.StateFailed || view.Result == nil {
		res.err = fmt.Errorf("scan %s: %s %s", view.ID, view.State, view.Error)
		return res
	}
	res.answer, res.cached, res.serverMS = view.Result.Probability, view.Cached, view.ElapsedMS
	return res
}

// drain reads a response to its end so the connection is reused.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
