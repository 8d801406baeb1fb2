package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"computecovid19/internal/core"
	"computecovid19/internal/volume"
)

// runConfig is one run of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	trace   bool
	// maxOps caps each window's ops and shortens set-up and the probes; the
	// smoke test sets it, measured runs leave it 0.
	maxOps   int
	traceDir string // where a traced run writes its Chrome trace
	log      io.Writer
}

// setupRepeats is how many times a run sets the program up; setup_s is
// their median and the last instance is the one measured.
const setupRepeats = 3

// tolerance is how far an answer may be from its reference.
const tolerance = 1e-6

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints. Metrics holds the end-to-end
// metrics, and after a traced run the per-layer metrics as well; main
// prints the set its -trace flag asks for.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics of an untraced run.
var endToEnd = []string{"scans_per_s", "p50_ms", "setup_s"}

// opRecord is one op of a timed window.
type opRecord struct {
	key int
	ms  float64
	res result
}

// runner carries what the windows of one run share.
type runner struct {
	cfg  runConfig
	in   *inputs
	feed []*volume.Volume // pre-enhanced base volumes, when the workload wants them
	next atomic.Int64     // op index: never reused, so a unique volume is never resubmitted
}

func (rn *runner) input(i int) (int, *volume.Volume) {
	key := rn.in.key(i)
	if rn.feed != nil {
		return key, rn.feed[key]
	}
	return key, rn.in.volume(key)
}

// window runs the workload's closed loop: each caller starts its next op
// when its last one ends, until d has passed or maxOps ops have started.
// It returns the ops and their rate per second: the sum over callers of
// ops done by the time the caller's last one ended, so that the stretch
// at the end where only some callers are still busy counts for no one.
func (rn *runner) window(r *rig, rec *recorder, d time.Duration, maxOps int) ([]opRecord, float64) {
	var (
		mu      sync.Mutex
		ops     []opRecord
		rate    float64
		started atomic.Int64
		wg      sync.WaitGroup
	)
	begin := time.Now()
	for c := 0; c < rn.cfg.w.clients; c++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			done := 0
			defer func() {
				mu.Lock()
				rate += float64(done) / time.Since(begin).Seconds()
				mu.Unlock()
			}()
			for time.Since(begin) < d {
				if maxOps > 0 && started.Add(1) > int64(maxOps) {
					return
				}
				i := int(rn.next.Add(1) - 1)
				key, v := rn.input(i)
				t0 := time.Now()
				root := rec.root(i, tid)
				res := rn.cfg.w.op(r, v, rec, root, tid)
				rec.end(root)
				o := opRecord{key: key, ms: ms(time.Since(t0)), res: res}
				if res.err == nil {
					done++
				}
				mu.Lock()
				ops = append(ops, o)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ops, rate
}

// setUp starts the program and runs the warm-up ops, all of it timed.
func (rn *runner) setUp() (*rig, time.Duration, error) {
	w := rn.cfg.w
	t0 := time.Now()
	r, err := w.start()
	if err != nil {
		if r != nil {
			_ = r.stop() // the start error is the one to report
		}
		return nil, 0, fmt.Errorf("start %s: %w", w.name, err)
	}
	for c := 0; c < w.clients && r.url != ""; c++ {
		r.clients = append(r.clients, &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
			Timeout:   60 * time.Second,
		})
	}
	warm := w.warmup
	if rn.cfg.maxOps > 0 && warm > cohortSize {
		warm = cohortSize // still primes every base volume on serve.cached
	}
	ops, _ := rn.window(r, nil, time.Hour, warm)
	for _, o := range ops {
		if o.res.err != nil {
			_ = r.stop() // the op error is the one to report
			return nil, 0, fmt.Errorf("warm-up op on %s: %w", w.name, o.res.err)
		}
	}
	return r, time.Since(t0), nil
}

// run measures one workload and returns its report.
func run(cfg runConfig) (report, error) {
	w := cfg.w
	rn := &runner{cfg: cfg, in: makeInputs(w, cfg.seed)}
	ref := newPipeline()
	if w.preEnhanced {
		for _, v := range rn.in.base {
			rn.feed = append(rn.feed, ref.Enhance(v))
		}
	}

	repeats := setupRepeats
	if cfg.maxOps > 0 {
		repeats = 1
	}
	var (
		r      *rig
		setups []float64
	)
	for i := 0; i < repeats; i++ {
		if r != nil {
			if err := r.stop(); err != nil {
				return report{}, fmt.Errorf("stop %s: %w", w.name, err)
			}
		}
		var d time.Duration
		var err error
		if r, d, err = rn.setUp(); err != nil {
			return report{}, err
		}
		setups = append(setups, d.Seconds())
	}
	defer func() { _ = r.stop() }() // a failed stop after the measurement changes nothing reported

	// The untraced window gives the end-to-end metrics. A traced run
	// spends a quarter of its time on one, to have the untraced rate on
	// the same instance, and the rest with the recorder on.
	total := time.Duration(cfg.seconds * float64(time.Second))
	plain := total
	if cfg.trace {
		plain = total / 4
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ops, rate := rn.window(r, nil, plain, cfg.maxOps)
	runtime.ReadMemStats(&m1)

	rep := report{Metrics: map[string]metric{
		"scans_per_s": {rate, "1/s"},
		"p50_ms":      {median(latencies(ops)), "ms"},
		"setup_s":     {median(setups), "s"},
	}}
	if cfg.trace {
		before := scrape(r.url)
		rec := newRecorder()
		traced, tracedRate := rn.window(r, rec, total-plain, cfg.maxOps)
		after := scrape(r.url)
		path := filepath.Join(cfg.traceDir, "trace-"+w.name+".json")
		if err := rec.writeChrome(path); err != nil {
			return report{}, fmt.Errorf("write trace: %w", err)
		}
		pr := runProbes(ref, rn.in.base[0], cfg.maxOps > 0)
		tr := traceStats{
			rec: rec, ops: traced, tracedRate: tracedRate, probes: pr,
			plainRate: rate, plainOps: len(ops),
			mallocs: m1.Mallocs - m0.Mallocs, gcPauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
			before: before, after: after,
		}
		tr.fill(w, rep.Metrics, cfg.log)
		fmt.Fprintf(cfg.log, "trace: %s (%d spans)\n", path, len(rec.spans))
		ops = append(ops, traced...)
	}

	rep.Attempted = len(ops)
	rep.Failed = check(w, ref, rn.in, ops, cfg.log)
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	return rep, nil
}

func latencies(ops []opRecord) []float64 {
	lat := make([]float64, 0, len(ops))
	for _, o := range ops {
		if o.res.err == nil {
			lat = append(lat, o.ms)
		}
	}
	return lat
}

// check counts the ops that failed: a transport error or exhausted retry,
// an answer further than tolerance from the reference for its volume, or —
// where every timed op resubmits a primed volume (mustHit) — an answer that
// did not come from the cache.
func check(w workload, ref *core.Pipeline, in *inputs, ops []opRecord, log io.Writer) int {
	keys := make(map[int]float64)
	for _, o := range ops {
		keys[o.key] = 0
	}
	order := make([]int, 0, len(keys))
	for k := range keys {
		order = append(order, k)
	}
	sort.Ints(order)
	for _, k := range order {
		keys[k] = w.reference(ref, in.volume(k))
	}
	failed := 0
	for _, o := range ops {
		switch {
		case o.res.err != nil:
			fmt.Fprintf(log, "FAILED op (volume %d): %v\n", o.key, o.res.err)
		case math.Abs(o.res.answer-keys[o.key]) > tolerance || math.IsNaN(o.res.answer):
			fmt.Fprintf(log, "FAILED op (volume %d): answer %.9g, reference %.9g\n", o.key, o.res.answer, keys[o.key])
		case w.mustHit && !o.res.cached:
			fmt.Fprintf(log, "FAILED op (volume %d): primed volume missed the cache\n", o.key)
		default:
			continue
		}
		failed++
	}
	return failed
}

// peakRSSMB is the process's VmHWM.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
