package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"computecovid19/internal/obs"
	"computecovid19/internal/serve"
)

// handleScan is the gateway's synchronous scan endpoint: validate,
// route, hedge, retry, and answer with the terminal JobView. The
// request root span ("gateway/request") covers everything; each replica
// attempt gets a child span whose identity travels to the replica in
// the Traceparent header, so the replica's serve/request span becomes
// its child and the whole scan renders as one trace tree.
func (g *Gateway) handleScan(w http.ResponseWriter, r *http.Request) {
	g.gate.RLock()
	if g.draining {
		g.gate.RUnlock()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "gateway draining")
		return
	}
	g.inflight.Add(1)
	g.gate.RUnlock()
	defer g.inflight.Done()

	ctx := r.Context()
	if sc, ok := obs.ParseTraceparent(r.Header.Get("Traceparent")); ok {
		ctx = obs.ContextWithRemote(ctx, sc)
	}
	ctx, sp := obs.StartCtx(ctx, "gateway/request")
	defer sp.End()
	if tp := sp.Traceparent(); tp != "" {
		w.Header().Set("Traceparent", tp)
	}

	serve.LimitBody(w, r, g.maxVoxels)
	var req serve.ScanRequest
	wire, err := serve.ReadScan(r.Body, &req)
	if err != nil {
		httpError(w, serve.BodyErrorStatus(err), "bad json: %v", err)
		return
	}
	// The body is forwarded as it came and never released to the pool:
	// net/http may still read a request body after Do returns (a
	// cancelled hedge), so no later scan may reuse these bytes.
	body := wire.B
	if code, err := req.CheckDims(g.maxVoxels); err != nil {
		httpError(w, code, "%v", err)
		return
	}
	key := contentKey(&req)
	if sp != nil {
		sp.SetAttr("key", key[:12])
	}

	deadline := g.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	requestsTotal.Inc()
	start := time.Now()
	var res attemptResult
	if g.shouldShard(&req) {
		res = g.doSharded(ctx, &req)
		if res.err != nil && ctx.Err() == nil {
			// Sharding is an optimization, never a new failure mode: any
			// scatter/gather or classify-leg error falls back to the plain
			// unsharded path before the client sees anything.
			shardFallbacksTotal.Inc()
			obs.Logger(ctx).Warn("sharded scan falling back to unsharded", "err", res.err)
			res = g.do(ctx, body, key)
		}
	} else {
		res = g.do(ctx, body, key)
	}
	requestSeconds.Observe(time.Since(start).Seconds())

	switch {
	case res.err != nil:
		errorsTotal.Inc()
		obs.Logger(ctx).Error("scan failed at gateway", "err", res.err, "replica", repName(res.rep))
		if res.retryAfter > 0 {
			// Every replica pushed back — propagate the backpressure.
			w.Header().Set("Retry-After", strconv.Itoa(int(res.retryAfter.Seconds()+1)))
			httpError(w, http.StatusTooManyRequests, "all replicas busy: %v", res.err)
			return
		}
		httpError(w, http.StatusBadGateway, "scan failed after retries: %v", res.err)
	case res.status != http.StatusOK:
		// Terminal replica verdict (4xx validation, 413 oversize):
		// passed through untouched — a retry cannot change it.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(res.status)
		w.Write(res.body)
	default:
		res.view.ID = res.view.ID + "@" + res.rep.name
		if res.xcache != "" {
			w.Header().Set("X-Cache", res.xcache)
		}
		w.Header().Set("X-Replica", res.rep.name)
		writeJSON(w, http.StatusOK, res.view)
	}
}

// handleGet re-fetches a scan by gateway id ("<replica id>@<replica>"):
// the owning replica keeps the job record, the gateway only routes.
func (g *Gateway) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	local, repName, ok := cutLast(id, "@")
	if !ok {
		httpError(w, http.StatusNotFound, "unknown scan %q (gateway ids end in @replica)", id)
		return
	}
	rep := g.replicaByName(repName)
	if rep == nil {
		httpError(w, http.StatusNotFound, "scan %q: replica %q is not in the set", id, repName)
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rep.url+"/v1/scan/"+local, nil)
	if err != nil {
		httpError(w, http.StatusBadGateway, "%v", err)
		return
	}
	resp, err := rep.client.Do(req)
	if err != nil {
		httpError(w, http.StatusBadGateway, "replica %s: %v", rep.name, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		w.Write(b)
		return
	}
	var view serve.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		httpError(w, http.StatusBadGateway, "replica %s: %v", rep.name, err)
		return
	}
	view.ID = view.ID + "@" + rep.name
	writeJSON(w, http.StatusOK, view)
}

// attemptResult is one routing outcome: a finished view (scans) or
// enhanced chunk (sharded enhancement), a terminal pass-through status,
// or a retryable error.
type attemptResult struct {
	view       serve.JobView
	chunk      []float32 // enhanced voxels from a chunk-range call
	status     int       // HTTP status for the client when err is nil
	body       []byte    // terminal pass-through body (status != 200)
	xcache     string
	rep        *replica
	hedged     bool
	attempts   int // routing attempts consumed (hedges not counted)
	retryAfter time.Duration
	err        error
}

// replicaCall is one unit of replica work inside the routing machinery:
// a full scan (scanReplica) or a chunk-range enhancement
// (enhanceReplica). Abstracting the call lets the sharded scatter path
// reuse the exact same retry, exclusion, and hedging behavior scans get.
type replicaCall func(ctx context.Context, rep *replica, hedged bool) attemptResult

// do runs the retry loop for one whole scan (see doCall).
func (g *Gateway) do(ctx context.Context, body []byte, key string) attemptResult {
	return g.doCall(ctx, key, g.attemptLat, func(ctx context.Context, rep *replica, hedged bool) attemptResult {
		return g.scanReplica(ctx, rep, body, hedged)
	})
}

// doCall runs the retry loop: route (affinity first, then load-aware),
// attempt with hedging, and on retryable failure try elsewhere until
// the retry budget or the deadline runs out. Replicas that failed this
// call are excluded from re-selection until every replica has been
// tried, at which point the exclusion set resets — backpressure (429)
// from the whole set is retried against it after the advertised wait.
// lat is the latency profile driving the adaptive hedge delay — scans
// and chunks keep separate profiles, so millisecond chunks never trick
// the gateway into hedging multi-second scans early (or vice versa).
func (g *Gateway) doCall(ctx context.Context, key string, lat *obs.Histogram, call replicaCall) attemptResult {
	tried := make(map[*replica]bool)
	var last attemptResult
	for attempt := 0; ; attempt++ {
		affinityKey := key
		if attempt > 0 {
			affinityKey = "" // retries want a different placement, not cache warmth
		}
		rep, affine := g.pick(affinityKey, tried)
		if rep == nil && len(tried) > 0 {
			tried = make(map[*replica]bool)
			rep, affine = g.pick("", tried)
		}
		if rep == nil {
			last.err = fmt.Errorf("no replicas available")
			last.attempts = attempt + 1
			return last
		}
		if affine {
			affinityRouted.Inc()
		}

		res := g.attemptWithHedge(ctx, rep, tried, lat, call)
		res.attempts = attempt + 1
		if res.err == nil {
			if affine && res.rep == rep && res.xcache == "hit" {
				affinityHits.Inc()
			}
			return res
		}
		last = res
		tried[rep] = true
		if res.rep != nil {
			tried[res.rep] = true
		}

		if attempt >= g.cfg.MaxRetries || ctx.Err() != nil {
			return last
		}
		retriesTotal.Inc()
		if res.retryAfter > 0 {
			select {
			case <-ctx.Done():
				return last
			case <-time.After(res.retryAfter):
			}
		}
	}
}

// attemptWithHedge runs one attempt against primary and, if the
// adaptive p95 delay elapses first, fires a second attempt at the
// next-best replica. The first successful response wins; the loser is
// cancelled through the shared attempt context. When both attempts
// fail, the primary's failure is reported (its replica drives the
// exclusion set).
func (g *Gateway) attemptWithHedge(ctx context.Context, primary *replica, exclude map[*replica]bool, lat *obs.Histogram, call replicaCall) attemptResult {
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the hedge loser (or both, on deadline)

	results := make(chan attemptResult, 2)
	go func() { results <- call(actx, primary, false) }()

	var timerC <-chan time.Time
	if delay := g.hedgeDelay(lat); delay > 0 {
		timer := time.NewTimer(delay)
		defer timer.Stop()
		timerC = timer.C
	}

	outstanding := 1
	var firstFail attemptResult
	failed := 0
	for {
		select {
		case res := <-results:
			outstanding--
			if res.err == nil {
				if res.hedged {
					hedgeWinsTotal.Inc()
				}
				return res
			}
			failed++
			if failed == 1 {
				firstFail = res
			}
			if outstanding == 0 {
				return firstFail
			}
			// The other attempt is still running; wait it out.
		case <-timerC:
			timerC = nil
			ex := map[*replica]bool{primary: true}
			for r := range exclude {
				ex[r] = true
			}
			h, _ := g.pick("", ex)
			if h == nil || !h.healthy() {
				continue // nobody sane to hedge to
			}
			hedgesTotal.Inc()
			outstanding++
			go func() { results <- call(actx, h, true) }()
		case <-ctx.Done():
			return attemptResult{rep: primary, err: ctx.Err()}
		}
	}
}

// hedgeDelay is the adaptive hedge trigger: the p95 of the given
// latency profile (scan attempts or chunk attempts), floored at
// HedgeDelayMin; before enough samples exist it stays at HedgeDelayMax
// (hedging into the unknown is how retry storms start). 0 means do not
// hedge: when the p95 itself exceeds HedgeDelayMax the tail is
// saturation, not stragglers — every replica is uniformly slow, and a
// second attempt would add load exactly when the cluster has none to
// spare.
func (g *Gateway) hedgeDelay(lat *obs.Histogram) time.Duration {
	if g.cfg.DisableHedging {
		return 0
	}
	if lat.Count() < uint64(g.cfg.HedgeMinSamples) {
		return g.cfg.HedgeDelayMax
	}
	d := time.Duration(lat.Quantile(0.95) * float64(time.Second))
	if d > g.cfg.HedgeDelayMax {
		return 0
	}
	if d < g.cfg.HedgeDelayMin {
		d = g.cfg.HedgeDelayMin
	}
	return d
}

// scanReplica performs one full attempt against one replica: submit,
// and on 202 poll to the terminal state. Transport failures (unless
// caused by our own cancellation) feed the replica's ejection state
// machine, so a dead replica stops receiving traffic ahead of the next
// health probe.
func (g *Gateway) scanReplica(ctx context.Context, rep *replica, body []byte, hedged bool) attemptResult {
	res := attemptResult{rep: rep, hedged: hedged}
	rep.acquire()
	defer rep.release()

	ctx, asp := obs.StartCtx(ctx, "gateway/attempt")
	defer asp.End()
	if asp != nil {
		asp.SetAttr("replica", rep.name)
		if hedged {
			asp.SetAttr("hedged", true)
		}
	}
	start := time.Now()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/scan", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if tp := asp.Traceparent(); tp != "" {
		req.Header.Set("Traceparent", tp)
	}
	resp, err := rep.client.Do(req)
	if err != nil {
		res.err = err
		if ctx.Err() == nil {
			g.noteObservation(rep, false)
		}
		return res
	}
	res.xcache = resp.Header.Get("X-Cache")

	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		var view serve.JobView
		err := json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			res.err = fmt.Errorf("replica %s: decode: %w", rep.name, err)
			return res
		}
		if resp.StatusCode == http.StatusAccepted {
			if view, err = g.pollReplica(ctx, rep, view.ID); err != nil {
				res.err = err
				return res
			}
		}
		res.view = view
		res.status = http.StatusOK
		rep.served.Add(1)
		d := time.Since(start)
		rep.observeLatency(d)
		g.attemptLat.Observe(d.Seconds())
		g.noteObservation(rep, true)
		return res

	case resp.StatusCode == http.StatusTooManyRequests ||
		resp.StatusCode == http.StatusServiceUnavailable:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		res.retryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		res.err = fmt.Errorf("replica %s: status %d", rep.name, resp.StatusCode)
		return res

	case resp.StatusCode >= 500:
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		res.err = fmt.Errorf("replica %s: status %d", rep.name, resp.StatusCode)
		g.noteObservation(rep, false)
		return res

	default:
		// 4xx: the replica judged the request itself invalid — terminal.
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		res.status = resp.StatusCode
		res.body = b
		return res
	}
}

// pollReplica polls one replica-local job id to its terminal state.
func (g *Gateway) pollReplica(ctx context.Context, rep *replica, id string) (serve.JobView, error) {
	ticker := time.NewTicker(g.cfg.PollInterval)
	defer ticker.Stop()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/v1/scan/"+id, nil)
		if err != nil {
			return serve.JobView{}, err
		}
		resp, err := rep.client.Do(req)
		if err != nil {
			if ctx.Err() == nil {
				g.noteObservation(rep, false)
			}
			return serve.JobView{}, fmt.Errorf("replica %s: poll: %w", rep.name, err)
		}
		var view serve.JobView
		if resp.StatusCode != http.StatusOK {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return serve.JobView{}, fmt.Errorf("replica %s: poll status %d", rep.name, resp.StatusCode)
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return serve.JobView{}, fmt.Errorf("replica %s: poll decode: %w", rep.name, err)
		}
		if view.State == serve.StateDone || view.State == serve.StateFailed {
			return view, nil
		}
		select {
		case <-ctx.Done():
			return serve.JobView{}, ctx.Err()
		case <-ticker.C:
		}
	}
}

// parseRetryAfter reads a Retry-After header's delay-seconds form.
func parseRetryAfter(s string) time.Duration {
	if s == "" {
		return 0
	}
	secs, err := strconv.Atoi(s)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// cutLast splits s at the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return s, "", false
	}
	return s[:i], s[i+len(sep):], true
}

// repName renders a possibly-nil replica for logging.
func repName(r *replica) string {
	if r == nil {
		return "<none>"
	}
	return r.name
}
