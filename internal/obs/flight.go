package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The flight recorder keeps a bounded ring of recent *complete* traces —
// every span of a request, across goroutines — so slow-request exemplars
// survive without retaining the whole span buffer. A trace is complete
// when every span opened in it has ended (the request root span ends
// last, after the worker finishes). Dump triggers: SIGQUIT (see
// DumpFlightOnSignal), a request that exceeded its deadline, and 5xx
// responses (internal/serve wires the latter two through DumpFlightTrace).

// FlightTrace is one complete trace as retained by the flight recorder.
type FlightTrace struct {
	Trace TraceID `json:"trace_id"`
	// Root is the name of the trace's root span (zero Parent).
	Root string `json:"root"`
	// Start is the root span's start relative to the trace epoch.
	Start time.Duration `json:"start_ns"`
	// Dur is the root span's duration — the end-to-end request time.
	Dur time.Duration `json:"dur_ns"`
	// Spans is every span of the trace, in completion order.
	Spans []SpanRecord `json:"spans"`
}

// maxActiveFlights bounds the in-progress trace map; traces beyond the
// cap are not tracked. A leaked span
// that never Ends can pin at most its own trace entry.
const maxActiveFlights = 4096

// defaultFlightCapacity is the completed-trace ring size.
const defaultFlightCapacity = 64

type flightRecorder struct {
	mu     sync.Mutex
	active map[TraceID]*activeFlight
	ring   []FlightTrace // circular, cap = capacity
	next   int           // ring write cursor
	cap    int
}

type activeFlight struct {
	open  int
	spans []SpanRecord
}

var flight = &flightRecorder{active: map[TraceID]*activeFlight{}, cap: defaultFlightCapacity}

func (f *flightRecorder) open(trace TraceID) {
	if trace.IsZero() {
		return
	}
	f.mu.Lock()
	a := f.active[trace]
	if a == nil {
		if len(f.active) >= maxActiveFlights {
			f.mu.Unlock()
			return
		}
		a = &activeFlight{}
		f.active[trace] = a
	}
	a.open++
	f.mu.Unlock()
}

func (f *flightRecorder) close(r SpanRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	a := f.active[r.Trace]
	if a == nil {
		return // untracked (cap overflow) or reset mid-trace
	}
	a.spans = append(a.spans, r)
	a.open--
	if a.open > 0 {
		return
	}
	delete(f.active, r.Trace)
	ft := FlightTrace{Trace: r.Trace, Spans: a.spans}
	// The root span (zero Parent) names and bounds the trace; fall back
	// to the last-completed span for degenerate traces.
	root := a.spans[len(a.spans)-1]
	for _, s := range a.spans {
		if s.Parent.IsZero() {
			root = s
			break
		}
	}
	ft.Root, ft.Start, ft.Dur = root.Name, root.Start, root.Dur
	if len(f.ring) < f.cap {
		f.ring = append(f.ring, ft)
		f.next = len(f.ring) % f.cap
	} else {
		f.ring[f.next] = ft
		f.next = (f.next + 1) % f.cap
	}
}

// snapshot returns the retained traces, oldest first.
func (f *flightRecorder) snapshot() []FlightTrace {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightTrace, 0, len(f.ring))
	if len(f.ring) < f.cap {
		out = append(out, f.ring...)
	} else {
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	}
	return out
}

func (f *flightRecorder) reset() {
	f.mu.Lock()
	f.active = map[TraceID]*activeFlight{}
	f.ring = nil
	f.next = 0
	f.cap = defaultFlightCapacity
	f.mu.Unlock()
}

// SetFlightCapacity resizes the completed-trace ring (existing retained
// traces are kept up to the new capacity, newest first).
func SetFlightCapacity(n int) {
	if n < 1 {
		n = 1
	}
	traces := flight.snapshot()
	flight.mu.Lock()
	flight.cap = n
	if len(traces) > n {
		traces = traces[len(traces)-n:]
	}
	flight.ring = traces
	flight.next = len(traces) % n
	flight.mu.Unlock()
}

// FlightTraces returns the flight recorder's retained complete traces,
// oldest first.
func FlightTraces() []FlightTrace { return flight.snapshot() }

// FlightTraceByID returns the retained trace with the given id, if any.
func FlightTraceByID(id TraceID) (FlightTrace, bool) {
	for _, t := range flight.snapshot() {
		if t.Trace == id {
			return t, true
		}
	}
	return FlightTrace{}, false
}

// flightDump is the on-disk schema of a flight-recorder dump.
type flightDump struct {
	Reason    string        `json:"reason"`
	WrittenAt time.Time     `json:"written_at"`
	Traces    []FlightTrace `json:"traces"`
}

// WriteFlight writes the retained traces (slowest first) as indented
// JSON.
func WriteFlight(w io.Writer, reason string) error {
	traces := flight.snapshot()
	sort.SliceStable(traces, func(i, j int) bool { return traces[i].Dur > traces[j].Dur })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(flightDump{Reason: reason, WrittenAt: time.Now(), Traces: traces})
}

// flightSeq distinguishes dump files written within one process.
var flightSeq atomic.Uint64

// DumpFlight writes every retained trace to a new file in dir and
// returns its path. The directory is created if needed.
func DumpFlight(dir, reason string) (string, error) {
	name := fmt.Sprintf("flight-%d-%04d.json", os.Getpid(), flightSeq.Add(1))
	return writeDump(dir, name, func(w io.Writer) error { return WriteFlight(w, reason) })
}

// writeDump creates dir if needed and writes dir/name atomically: the
// content goes to a temporary file in the same directory, which is
// renamed into place only once fully written and closed, so a reader
// polling for the dump sees either no file or the whole of it. On error
// the temporary file is removed.
func writeDump(dir, name string, write func(io.Writer) error) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	f, err := os.CreateTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return "", err
	}
	// CreateTemp makes the file 0600; dumps keep os.Create's readability.
	if err = f.Chmod(0o644); err == nil {
		err = write(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	path := filepath.Join(dir, name)
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return path, nil
}

// DumpFlightTrace writes the single retained trace with the given id to
// dir (named after the trace id, so repeated triggers for one request
// overwrite rather than accumulate). It is a no-op returning "" when the
// trace is not retained — the recorder only dumps what it has.
func DumpFlightTrace(dir string, id TraceID, reason string) (string, error) {
	ft, ok := FlightTraceByID(id)
	if !ok {
		return "", nil
	}
	return writeDump(dir, "flight-"+id.String()+".json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(flightDump{Reason: reason, WrittenAt: time.Now(), Traces: []FlightTrace{ft}})
	})
}

// DumpFlightOnSignal installs a SIGQUIT handler that dumps the flight
// recorder to dir — the live-triage hook: kill -QUIT a stuck server and
// read the recent request traces without restarting it. The returned
// stop function uninstalls the handler.
func DumpFlightOnSignal(dir string) (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-ch:
				if path, err := DumpFlight(dir, "SIGQUIT"); err != nil {
					logger().Error("flight dump failed", "err", err)
				} else {
					logger().Info("flight recorder dumped", "path", path)
				}
			case <-done:
				return
			}
		}
	}()
	return func() {
		signal.Stop(ch)
		close(done)
	}
}
