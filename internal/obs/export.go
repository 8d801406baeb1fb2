package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// splitName separates an inline label block from a metric name:
// `foo{a="b"}` → base "foo", labels `a="b"`. Names without a label
// block return labels "".
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// joinLabels renders a label block from the inline labels plus extra
// pairs (already escaped), for the histogram "le" splice.
func joinLabels(labels string, extra ...string) string {
	parts := make([]string, 0, 1+len(extra))
	if labels != "" {
		parts = append(parts, labels)
	}
	parts = append(parts, extra...)
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): one # TYPE line per metric family,
// histograms expanded into _bucket/_sum/_count series with cumulative
// "le" buckets. Output is sorted by name, so it is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	names := r.names()
	// One TYPE line per metric family (base name), even when several
	// label sets share it; sort by (base, full name) so families are
	// contiguous.
	typed := make(map[string]bool)
	sort.Slice(names, func(i, j int) bool {
		bi, _ := splitName(names[i])
		bj, _ := splitName(names[j])
		if bi != bj {
			return bi < bj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		base, labels := splitName(name)
		switch m := r.get(name).(type) {
		case *Counter:
			if !typed[base] {
				if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", base); err != nil {
					return err
				}
				typed[base] = true
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", base, joinLabels(labels), m.Value()); err != nil {
				return err
			}
		case *Gauge:
			if !typed[base] {
				if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", base); err != nil {
					return err
				}
				typed[base] = true
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", base, joinLabels(labels), formatFloat(m.Value())); err != nil {
				return err
			}
		case *Histogram:
			if !typed[base] {
				if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
					return err
				}
				typed[base] = true
			}
			bounds := m.Bounds()
			cum := m.Cumulative()
			for i, c := range cum {
				le := "+Inf"
				if i < len(bounds) {
					le = formatFloat(bounds[i])
				}
				lb := joinLabels(labels, `le="`+le+`"`)
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", base, lb, c); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, joinLabels(labels), formatFloat(m.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", base, joinLabels(labels), m.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// HistogramDump is a histogram's JSON form.
type HistogramDump struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []BucketDump `json:"buckets"`
}

// BucketDump is one cumulative bucket; LE is math.Inf(1) for the last
// bucket and marshals as the string "+Inf".
type BucketDump struct {
	LE    jsonFloat `json:"le"`
	Count uint64    `json:"count"`
}

// jsonFloat marshals like a float64 but renders ±Inf as strings, which
// encoding/json otherwise rejects.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return json.Marshal(formatFloat(v))
	}
	return json.Marshal(v)
}

// Dump is the machine-readable snapshot WriteJSON emits — the source
// format for BENCH_*.json trajectories.
type Dump struct {
	Counters     map[string]uint64        `json:"counters,omitempty"`
	Gauges       map[string]float64       `json:"gauges,omitempty"`
	Histograms   map[string]HistogramDump `json:"histograms,omitempty"`
	Spans        map[string]SpanStat      `json:"spans,omitempty"`
	DroppedSpans uint64                   `json:"dropped_spans,omitempty"`
}

// Snapshot captures the registry's current state.
func (r *Registry) Snapshot() Dump {
	d := Dump{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramDump{},
	}
	for _, name := range r.names() {
		switch m := r.get(name).(type) {
		case *Counter:
			d.Counters[name] = m.Value()
		case *Gauge:
			d.Gauges[name] = m.Value()
		case *Histogram:
			hd := HistogramDump{Count: m.Count(), Sum: m.Sum()}
			bounds := m.Bounds()
			for i, c := range m.Cumulative() {
				le := math.Inf(1)
				if i < len(bounds) {
					le = bounds[i]
				}
				hd.Buckets = append(hd.Buckets, BucketDump{LE: jsonFloat(le), Count: c})
			}
			d.Histograms[name] = hd
		}
	}
	return d
}

// WriteJSON dumps the default registry plus span statistics as indented
// JSON.
func WriteJSON(w io.Writer) error {
	d := Default.Snapshot()
	d.Spans = SpanStats()
	_, d.DroppedSpans = TraceRecords()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// WriteText renders a human-readable summary of the default registry
// and span statistics.
func WriteText(w io.Writer) error {
	d := Default.Snapshot()
	stats := SpanStats()
	if len(d.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, name := range sortedKeys(d.Counters) {
			fmt.Fprintf(w, "  %-56s %d\n", name, d.Counters[name])
		}
	}
	if len(d.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, name := range sortedKeys(d.Gauges) {
			fmt.Fprintf(w, "  %-56s %s\n", name, formatFloat(d.Gauges[name]))
		}
	}
	if len(d.Histograms) > 0 {
		fmt.Fprintln(w, "histograms:                                                 count      mean")
		for _, name := range sortedKeys(d.Histograms) {
			h := d.Histograms[name]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(w, "  %-56s %6d  %8.4gs\n", name, h.Count, mean)
		}
	}
	if len(stats) > 0 {
		fmt.Fprintln(w, "spans:                                                      count     total       min       max")
		for _, name := range sortedKeys(stats) {
			s := stats[name]
			fmt.Fprintf(w, "  %-56s %6d  %8.4gs %8.4gs %8.4gs\n",
				name, s.Count, s.TotalSeconds, s.MinSeconds, s.MaxSeconds)
		}
	}
	if _, dropped := TraceRecords(); dropped > 0 {
		fmt.Fprintf(w, "dropped spans: %d (trace buffer full)\n", dropped)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// chromeEvent is one trace_event in the Chrome/Perfetto JSON format: a
// complete event (ph "X") with microsecond timestamps.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	PID  int            `json:"pid"`
	TID  int64          `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace renders records in the trace_event JSON object
// format ({"traceEvents": [...]}), loadable in chrome://tracing and
// Perfetto. TIDs are goroutine ids, so concurrent work renders on its
// own track.
func writeChromeTrace(w io.Writer, recs []SpanRecord) error {
	events := make([]chromeEvent, 0, len(recs))
	for _, r := range recs {
		ev := chromeEvent{
			Name: r.Name,
			Ph:   "X",
			PID:  1,
			TID:  r.TID,
			Ts:   float64(r.Start.Nanoseconds()) / 1e3,
			Dur:  float64(r.Dur.Nanoseconds()) / 1e3,
		}
		if len(r.Attrs) > 0 || !r.Trace.IsZero() {
			ev.Args = make(map[string]any, len(r.Attrs)+2)
			for _, a := range r.Attrs {
				ev.Args[a.Key] = a.Value
			}
			if !r.Trace.IsZero() {
				ev.Args["trace_id"] = r.Trace.String()
				ev.Args["span_id"] = r.ID.String()
			}
		}
		events = append(events, ev)
	}
	// Stable viewer-friendly order: by start time, then track.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ts != events[j].Ts {
			return events[i].Ts < events[j].Ts
		}
		return events[i].TID < events[j].TID
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events})
}

// WriteChromeTrace writes every collected span as a Chrome trace_event
// JSON file.
func WriteChromeTrace(w io.Writer) error {
	recs, _ := TraceRecords()
	return writeChromeTrace(w, recs)
}
