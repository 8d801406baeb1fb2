package obs_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"computecovid19/internal/obs"
)

// completeTrace records one root+child trace and returns its id.
func completeTrace(t *testing.T, name string) obs.TraceID {
	t.Helper()
	root := obs.Start(name)
	if root == nil {
		t.Fatal("tracing must be enabled")
	}
	child := root.Child(name + "/child")
	child.End()
	root.End()
	return root.TraceID()
}

func TestFlightRetainsOnlyCompleteTraces(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()

	// An open trace (child ended, root still running) is not retained.
	root := obs.Start("pending")
	root.Child("step").End()
	if got := obs.FlightTraces(); len(got) != 0 {
		t.Fatalf("incomplete trace retained: %+v", got)
	}
	root.End()

	id := completeTrace(t, "request")
	traces := obs.FlightTraces()
	if len(traces) != 2 {
		t.Fatalf("got %d retained traces, want 2", len(traces))
	}
	ft, ok := obs.FlightTraceByID(id)
	if !ok {
		t.Fatalf("trace %s not retained", id)
	}
	if ft.Root != "request" || len(ft.Spans) != 2 {
		t.Fatalf("retained trace wrong: root=%q spans=%d", ft.Root, len(ft.Spans))
	}
	// The root span bounds the trace even though it completes last.
	if ft.Dur < ft.Spans[0].Dur {
		t.Fatalf("trace duration %v shorter than child %v", ft.Dur, ft.Spans[0].Dur)
	}
	if _, ok := obs.FlightTraceByID(obs.TraceID{1}); ok {
		t.Fatal("unknown id must not resolve")
	}
}

func TestFlightRingEvictsOldestFirst(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	obs.SetFlightCapacity(3)

	var ids []obs.TraceID
	for _, name := range []string{"t0", "t1", "t2", "t3", "t4"} {
		ids = append(ids, completeTrace(t, name))
	}
	traces := obs.FlightTraces()
	if len(traces) != 3 {
		t.Fatalf("ring holds %d traces, want capacity 3", len(traces))
	}
	for i, ft := range traces {
		if want := ids[i+2]; ft.Trace != want {
			t.Fatalf("slot %d = %s, want %s (oldest-first, newest retained)", i, ft.Trace, want)
		}
	}
}

// flightDumpFile mirrors the on-disk dump schema.
type flightDumpFile struct {
	Reason    string            `json:"reason"`
	WrittenAt time.Time         `json:"written_at"`
	Traces    []obs.FlightTrace `json:"traces"`
}

func TestWriteFlightSlowestFirst(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()

	fast := obs.Start("fast")
	fast.End()
	slow := obs.Start("slow")
	time.Sleep(5 * time.Millisecond)
	slow.End()

	var buf bytes.Buffer
	if err := obs.WriteFlight(&buf, "test"); err != nil {
		t.Fatal(err)
	}
	var dump flightDumpFile
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Reason != "test" || len(dump.Traces) != 2 {
		t.Fatalf("dump = reason %q, %d traces", dump.Reason, len(dump.Traces))
	}
	if dump.Traces[0].Root != "slow" || dump.Traces[1].Root != "fast" {
		t.Fatalf("order = %q, %q; want slowest first", dump.Traces[0].Root, dump.Traces[1].Root)
	}
}

func TestDumpFlightWritesFile(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	completeTrace(t, "request")

	dir := filepath.Join(t.TempDir(), "nested") // exercises MkdirAll
	path, err := obs.DumpFlight(dir, "SIGQUIT")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(filepath.Base(path), "flight-") {
		t.Fatalf("unexpected dump name: %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDumpFile
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Reason != "SIGQUIT" || len(dump.Traces) != 1 || dump.Traces[0].Root != "request" {
		t.Fatalf("dump content wrong: %+v", dump)
	}
}

func TestDumpFlightTraceSelectsOneTrace(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	completeTrace(t, "other")
	id := completeTrace(t, "failed")

	dir := t.TempDir()
	path, err := obs.DumpFlightTrace(dir, id, "deadline")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(dir, "flight-"+id.String()+".json"); path != want {
		t.Fatalf("path = %s, want %s", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump flightDumpFile
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Traces) != 1 || dump.Traces[0].Trace != id || dump.Reason != "deadline" {
		t.Fatalf("dump must carry exactly the requested trace: %+v", dump)
	}

	// A trace the ring no longer holds dumps nothing — and is not an error.
	path, err = obs.DumpFlightTrace(dir, obs.TraceID{7}, "deadline")
	if err != nil || path != "" {
		t.Fatalf("unretained trace: path=%q err=%v, want no-op", path, err)
	}
}

// TestFlightDumpsLeaveOnlyTheFinalFile pins the atomic write: a dump is
// renamed into place whole, so after each call the directory holds the
// final files and no temporary, and a second DumpFlightTrace for the
// same id replaces the first dump rather than adding a file.
func TestFlightDumpsLeaveOnlyTheFinalFile(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	id := completeTrace(t, "request")

	dir := t.TempDir()
	only := func(want ...string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		sort.Strings(want) // ReadDir returns names sorted
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("dump dir holds %q, want exactly %q", got, want)
		}
	}
	readReason := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var dump flightDumpFile
		if err := json.Unmarshal(data, &dump); err != nil {
			t.Fatalf("dump %s is not whole JSON: %v", path, err)
		}
		return dump.Reason
	}

	first, err := obs.DumpFlightTrace(dir, id, "deadline")
	if err != nil {
		t.Fatal(err)
	}
	only(filepath.Base(first))
	second, err := obs.DumpFlightTrace(dir, id, "5xx")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("second dump for one id went to %s, want %s", second, first)
	}
	only(filepath.Base(first))
	if got := readReason(first); got != "5xx" {
		t.Fatalf("dump reason %q after the second dump, want it replaced by %q", got, "5xx")
	}

	all, err := obs.DumpFlight(dir, "SIGQUIT")
	if err != nil {
		t.Fatal(err)
	}
	only(filepath.Base(all), filepath.Base(first))
	if got := readReason(all); got != "SIGQUIT" {
		t.Fatalf("full dump reason %q, want SIGQUIT", got)
	}
}

func TestSetFlightCapacityKeepsNewest(t *testing.T) {
	defer obs.Reset()
	obs.Reset()
	obs.Enable()
	var ids []obs.TraceID
	for i := 0; i < 4; i++ {
		ids = append(ids, completeTrace(t, "t"))
	}
	obs.SetFlightCapacity(2)
	traces := obs.FlightTraces()
	if len(traces) != 2 || traces[0].Trace != ids[2] || traces[1].Trace != ids[3] {
		t.Fatalf("shrink must keep the newest traces: %+v", traces)
	}
	// The shrunk ring still cycles correctly.
	id := completeTrace(t, "t")
	traces = obs.FlightTraces()
	if len(traces) != 2 || traces[1].Trace != id {
		t.Fatalf("post-shrink insert wrong: %+v", traces)
	}
}
