package kernels_test

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	. "computecovid19/internal/kernels"
	"computecovid19/internal/obs"
)

// TestMeasureDDnetImpl checks the live-roofline wrapper: achieved rates
// must be finite and positive, consistent with Counters/wall-time
// division, and published as gauges in the default registry.
func TestMeasureDDnetImpl(t *testing.T) {
	m := MeasureDDnetImpl(TinyArch(), 32, MustSelect("ref+pf+lu"), 1, rand.New(rand.NewSource(1)))

	tot := m.Total()
	if tot.Seconds <= 0 {
		t.Fatalf("total seconds = %v, want > 0", tot.Seconds)
	}
	if tot.GFLOPS <= 0 || tot.GBps <= 0 {
		t.Fatalf("achieved rates GFLOPS=%v GBps=%v, want both > 0", tot.GFLOPS, tot.GBps)
	}
	conv := m.Conv()
	wantGFLOPS := float64(m.Counts.Conv.Flops) / conv.Seconds / 1e9
	if diff := conv.GFLOPS - wantGFLOPS; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("conv GFLOPS = %v, want flops/seconds = %v", conv.GFLOPS, wantGFLOPS)
	}

	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`kernels_achieved_gflops{class="conv",rung="ref+pf+lu"}`,
		`kernels_achieved_gbps{class="deconv",rung="ref+pf+lu"}`,
		"kernels_flops_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Prometheus export missing %q:\n%s", want, out)
		}
	}

	if s := m.String(); !strings.Contains(s, "conv") || !strings.Contains(s, "GFLOP") {
		t.Fatalf("Measured.String() = %q, want a per-class roofline table", s)
	}
}
