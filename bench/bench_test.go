package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"regexp"
	"testing"
)

// logWriter sends a run's log to the test's.
type logWriter struct{ t *testing.T }

func (l logWriter) Write(p []byte) (int, error) {
	l.t.Log(string(p))
	return len(p), nil
}

// TestSmoke runs every workload for a few ops, traced, and holds the
// report against BENCHMARK.json: same workloads, every metric present
// under its unit, nothing unnamed, no failed op.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, m := range spec.EndToEnd {
		want[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[m.Name] = m.Unit
	}
	if len(want) != len(spec.EndToEnd)+len(spec.PerLayer) {
		t.Error("BENCHMARK.json uses a metric name twice")
	}
	for n := range want {
		if !name.MatchString(n) {
			t.Errorf("metric name %q", n)
		}
	}

	ws := workloads()
	if len(ws) != len(spec.Workloads) {
		t.Fatalf("%d workloads in the program, %d in BENCHMARK.json", len(ws), len(spec.Workloads))
	}
	for i, w := range ws {
		if w.name != spec.Workloads[i].Name || !name.MatchString(w.name) {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, spec.Workloads[i].Name)
		}
		rep, err := run(runConfig{w: w, seed: 1, seconds: 60, trace: true, maxOps: 4,
			traceDir: t.TempDir(), log: logWriter{t}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted != 8 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.name, rep.Correct, rep.Failed, rep.Attempted)
		}
		for n, unit := range want {
			if got, ok := rep.Metrics[n]; !ok || got.Unit != unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want unit %q", w.name, n, got, ok, unit)
			}
		}
		for n := range rep.Metrics {
			if _, ok := want[n]; !ok {
				t.Errorf("%s: metric %s is not in BENCHMARK.json", w.name, n)
			}
		}
	}
}

// digest hashes the volumes of a workload's first n ops.
func digest(w workload, seed int64, n int) [sha256.Size]byte {
	in := makeInputs(w, seed)
	h := sha256.New()
	var b [4]byte
	for i := 0; i < n; i++ {
		for _, x := range in.volume(in.key(i)).Data {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func TestInputsFollowSeed(t *testing.T) {
	for _, w := range workloads() {
		a, b, c := digest(w, 7, 6), digest(w, 7, 6), digest(w, 8, 6)
		if a != b {
			t.Errorf("%s: seed 7 gave two different input sets", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same input set", w.name)
		}
	}
}
