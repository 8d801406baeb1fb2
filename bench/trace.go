package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into the program. Spans of one
// op share its id; parent is an index into the recorder, -1 for the op's
// root. The recorder is the benchmark's own: switching on internal/obs
// would turn on spans inside the program and change what is measured.
type span struct {
	name       string
	op, tid    int
	parent     int
	start, end time.Duration // since the recorder began
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the untraced windows run the same op code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// root opens the span that covers one whole op.
func (r *recorder) root(op, tid int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: "op", op: op, tid: tid, parent: -1, start: now})
	return len(r.spans) - 1
}

func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	r.spans = append(r.spans, span{name: name, op: p.op, tid: p.tid, parent: parent, start: now})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[i].end = now
	r.mu.Unlock()
}

// child records a span of length d that the program reported about itself,
// laid at the start of an ended parent and clipped to it.
func (r *recorder) child(name string, parent int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent]
	if d > p.end-p.start {
		d = p.end - p.start
	}
	r.spans = append(r.spans, span{name: name, op: p.op, tid: p.tid, parent: parent, start: p.start, end: p.start + d})
}

// selfTimes returns, for every op, the milliseconds each span name spent
// outside its children. An op's values sum to its root span's duration.
func (r *recorder) selfTimes() map[int]map[string]float64 {
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	ops := make(map[int]map[string]float64)
	for i, s := range r.spans {
		if ops[s.op] == nil {
			ops[s.op] = make(map[string]float64)
		}
		ops[s.op][s.name] += ms(self[i])
	}
	return ops
}

// stageMedians reduces selfTimes to one median per span name, counting an
// op that never entered a stage as 0 for it.
func (r *recorder) stageMedians() map[string]float64 {
	ops := r.selfTimes()
	names := make(map[string]bool)
	for _, st := range ops {
		for n := range st {
			names[n] = true
		}
	}
	out := make(map[string]float64, len(names))
	for n := range names {
		vals := make([]float64, 0, len(ops))
		for _, st := range ops {
			vals = append(vals, st[n])
		}
		out[n] = median(vals)
	}
	return out
}

// writeChrome writes the spans as a Chrome trace_event file, one track per
// closed-loop caller.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{Name: s.name, Ph: "X", PID: 1, TID: s.tid,
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]int{"op": s.op, "parent": s.parent}}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// quantile is the nearest-rank q-quantile; it sorts a copy.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}
