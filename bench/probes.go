package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"computecovid19/internal/core"
	"computecovid19/internal/ctsim"
	"computecovid19/internal/ddnet"
	"computecovid19/internal/kernels"
	"computecovid19/internal/segment"
	"computecovid19/internal/serve"
	"computecovid19/internal/volume"
)

// probes are single-caller timings of each layer's public entry point on
// an otherwise idle process, in milliseconds per call: what a stage costs
// when nothing contends with it. The budget sets them against the time
// the same stage takes inside a loaded op.
type probes struct {
	enhance  float64 // core.Pipeline.EnhanceInto, whole volume
	segment  float64 // segment.Scratch.LungsInto
	classify float64 // classify.Classifier.PredictPooled
	encode   float64 // json.Marshal of a serve.ScanRequest
	decode   float64 // json.Unmarshal of the same body
	hash     float64 // SHA-256 over the voxels, as serve's cache key does
	slices   int
	size     int
}

func timeMedian(reps int, f func()) float64 {
	f() // warm pools and scratch
	vals := make([]float64, reps)
	for i := range vals {
		t0 := time.Now()
		f()
		vals[i] = ms(time.Since(t0))
	}
	return median(vals)
}

func runProbes(p *core.Pipeline, v *volume.Volume, quick bool) probes {
	reps := 9
	if quick {
		reps = 2
	}
	pr := probes{slices: v.D, size: v.H}

	out := p.GetVolume(v.D, v.H, v.W)
	pr.enhance = timeMedian(reps, func() { p.EnhanceInto(context.Background(), v, out) })

	scratch := segment.NewScratch(p.Arena())
	mask := make([]bool, len(out.Data))
	pr.segment = timeMedian(reps, func() { scratch.LungsInto(out, p.SegOpts, mask) })

	norm := out.ApplyMask(mask).Normalized(ctsim.FullWindowLo, ctsim.FullWindowHi)
	pr.classify = timeMedian(reps, func() { p.Classifier.PredictPooled(p.Arena(), norm) })
	p.RecycleVolume(out)

	req := serve.ScanRequest{D: v.D, H: v.H, W: v.W, Data: v.Data}
	var body []byte
	pr.encode = timeMedian(reps, func() { body, _ = json.Marshal(req) }) // float32 voxels always marshal
	pr.decode = timeMedian(reps, func() {
		var back serve.ScanRequest
		_ = json.Unmarshal(body, &back) // body is Marshal's own output
	})
	pr.hash = timeMedian(reps, func() {
		buf := make([]byte, 4*len(v.Data))
		for i, x := range v.Data {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(x))
		}
		sha256.Sum256(buf)
	})
	return pr
}

// scrape reads the counters of a server's or gateway's /metrics page:
// unlabelled series only, which is all the benchmark uses. A direct
// workload has no such page and gets an empty map.
func scrape(url string) map[string]float64 {
	out := make(map[string]float64)
	if url == "" {
		return out
	}
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var name string
		var val float64
		if n, _ := fmt.Sscanf(sc.Text(), "%s %g", &name, &val); n == 2 && !strings.HasPrefix(name, "#") {
			out[name] = val
		}
	}
	return out
}

// traceStats is everything a traced run gathered.
type traceStats struct {
	rec           *recorder
	ops           []opRecord
	probes        probes
	tracedRate    float64 // scans per second with the recorder on
	plainRate     float64 // and with it off, on the same instance
	plainOps      int
	mallocs       uint64 // over the untraced window, whole process
	gcPauseNs     uint64
	before, after map[string]float64
}

// budgetLine is one stage of the budget.
type budgetLine struct {
	name string
	ms   float64
	from string // "span": measured inside the ops; "probe": measured alone
}

// budget accounts for the traced median op. Stages the benchmark can time
// from outside are span self-times. A span that hides several layers —
// Classify, the server's elapsed time, a gateway round trip — is replaced
// by the probes of the layers it ran (workload.split), and whatever those
// leave unexplained (queueing, batching, contention between concurrent
// scans, the hops between processes) lands in the residual together with
// the difference between a sum of medians and the median of sums.
func (t *traceStats) budget(w workload, stages map[string]float64) (lines []budgetLine, p50, residual float64) {
	pr := t.probes
	probe := map[string]float64{"enhance": pr.enhance, "segment": pr.segment, "classify": pr.classify,
		"wire_decode": pr.decode, "key_hash": pr.hash}
	for _, name := range []string{"op", "encode", "submit", "wait", "server", "EnhanceInto", "Classify", "RecycleResult"} {
		v, ok := stages[name]
		if !ok {
			continue
		}
		if parts, ok := w.split[name]; ok {
			for _, part := range parts {
				lines = append(lines, budgetLine{part, probe[part], "probe"})
			}
		} else {
			lines = append(lines, budgetLine{name, v, "span"})
		}
	}
	p50 = median(latencies(t.ops))
	residual = p50
	for _, l := range lines {
		residual -= l.ms
	}
	return lines, p50, residual
}

// fill adds every per-layer metric to m and prints the budget.
func (t *traceStats) fill(w workload, m map[string]metric, log io.Writer) {
	lat := latencies(t.ops)
	n := float64(len(lat))
	stages := t.rec.stageMedians()
	lines, p50, residual := t.budget(w, stages)
	delta := func(name string) float64 { return t.after[name] - t.before[name] }
	var polls, rejected, server float64
	for _, o := range t.ops {
		polls += float64(o.res.polls)
		rejected += float64(o.res.rejected)
		server += o.res.serverMS
	}
	pr := t.probes
	counts := kernels.DDnetCounts(ddnet.TinyConfig().Arch(), pr.size).Total()

	m["traced_p50_ms"] = metric{p50, "ms"}
	m["residual_ms"] = metric{residual, "ms"}
	m["residual_share"] = metric{residual / p50, "share"}
	m["trace_overhead_share"] = metric{1 - t.tracedRate/t.plainRate, "share"}
	q, tail := tailQuantile(lat)
	m["tail_ms"] = metric{tail, "ms"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}

	m["enhance_ms_per_slice"] = metric{pr.enhance / float64(pr.slices), "ms"}
	m["enhance_gflops"] = metric{float64(counts.Flops) * float64(pr.slices) / (pr.enhance * 1e6), "GFLOP/s"}
	m["enhance_flops_per_byte"] = metric{float64(counts.Flops) / float64(counts.Bytes()), "flop/B"}
	m["segment_ms_per_scan"] = metric{pr.segment, "ms"}
	m["classify_ms_per_scan"] = metric{pr.classify, "ms"}
	m["allocs_per_op"] = metric{float64(t.mallocs) / math.Max(1, float64(t.plainOps)), "count"}
	m["gc_pause_ms_total"] = metric{float64(t.gcPauseNs) / 1e6, "ms"}

	m["wire_encode_ms"] = metric{pr.encode, "ms"}
	m["wire_decode_ms"] = metric{pr.decode, "ms"}
	m["key_hash_ms"] = metric{pr.hash, "ms"}
	m["submit_rtt_ms"] = metric{stages["submit"], "ms"}
	m["polls_per_scan"] = metric{ratio(polls, n), "count"}
	m["server_elapsed_ms"] = metric{ratio(server, n), "ms"}
	m["mean_batch_slices"] = metric{ratio(delta("serve_batch_size_sum"), delta("serve_batch_size_count")), "count"}
	hits := delta("serve_cache_hits_total")
	m["cache_hit_share"] = metric{ratio(hits, hits+delta("serve_cache_misses_total")), "share"}
	m["rejected_429"] = metric{rejected + delta("serve_rejected_total") + delta("serve_enhance_chunk_rejected_total"), "count"}

	m["chunks_per_scan"] = metric{ratio(delta("cluster_shard_chunks_total"), delta("cluster_shard_scans_total")), "count"}
	m["redispatches"] = metric{delta("cluster_shard_redispatch_total"), "count"}
	m["hedges"] = metric{delta("cluster_hedges_total"), "count"}
	m["retries"] = metric{delta("cluster_retries_total"), "count"}
	gateway := 0.0
	if w.gateway {
		gateway = residual
	}
	m["gateway_residual_ms"] = metric{gateway, "ms"}

	// The measured successor to the modelled 0.44: scans per second times
	// the seconds of pipeline compute one scan needs when it runs alone.
	direct := pr.enhance + pr.segment + pr.classify
	m["serve_efficiency"] = metric{t.plainRate * direct / 1e3, "share"}

	fmt.Fprintf(log, "budget %s: traced p50 %.3f ms over %d ops (tail is p%g)\n", w.name, p50, len(lat), q*100)
	for _, l := range lines {
		fmt.Fprintf(log, "  %-14s %9.3f ms  %5.1f%%  %s\n", l.name, l.ms, 100*l.ms/p50, l.from)
	}
	fmt.Fprintf(log, "  %-14s %9.3f ms  %5.1f%%\n", "residual", residual, 100*residual/p50)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tailQuantile picks the highest of p99, p95, p90 and p75 that still has
// ten samples beyond it, and falls back to the maximum.
func tailQuantile(lat []float64) (q, v float64) {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(len(lat))*(1-q) >= 10 {
			return q, quantile(lat, q)
		}
	}
	return 1, quantile(lat, 1)
}
