// Package obs is the repository's telemetry subsystem: hierarchical
// wall-time spans, a process-wide registry of counters / gauges /
// histograms, and exporters for humans (text summary), machines (JSON,
// the source for BENCH_*.json trajectories), Prometheus scrapes (text
// exposition format), and chrome://tracing / Perfetto (trace_event
// JSON).
//
// The paper's claims are throughput claims — Table 3's DDP scaling,
// Table 6's per-kernel load/store/flop ladder, the §1 "days to minutes"
// turnaround — so every layer of this reproduction reports into obs:
// internal/core records per-stage and per-scan latencies, internal/ddnet
// per-layer forward times, internal/distrib per-step loss, gradient
// norms and all-reduce bytes, and internal/workflow queue-wait and
// service times.
//
// Cost model: metric handles are lock-free atomics, cheap enough to stay
// always-on. Span collection is gated by Enable/Disable; a disabled
// Start returns a nil *Span whose methods are no-op on the nil receiver,
// so an instrumented call site costs one atomic load (~1-2 ns, see
// BenchmarkSpanDisabled) when tracing is off.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates span collection (the expensive part: time.Now calls and
// record retention). Metrics are always live.
var enabled atomic.Bool

// epoch is the zero point of exported trace timestamps. Written before
// enabled flips true; read only by span sites that observed true.
var epoch struct {
	mu sync.Mutex
	t  time.Time
}

// Enable turns span collection on. The first call (or the first after
// Reset) pins the trace epoch, so exported timestamps count from it.
func Enable() {
	epoch.mu.Lock()
	if epoch.t.IsZero() {
		epoch.t = time.Now()
	}
	epoch.mu.Unlock()
	enabled.Store(true)
}

// Disable turns span collection off. Already-started spans still record
// on End; new Start calls return nil.
func Disable() { enabled.Store(false) }

// Enabled reports whether span collection is on. Instrumented code may
// also consult it to skip derived computations (e.g. gradient norms)
// whose only purpose is telemetry.
func Enabled() bool { return enabled.Load() }

// traceEpoch returns the pinned epoch (zero time if Enable never ran).
func traceEpoch() time.Time {
	epoch.mu.Lock()
	defer epoch.mu.Unlock()
	return epoch.t
}

// Reset clears all telemetry state — every metric in the default
// registry is zeroed in place (handles stay valid and registered), the
// span buffer, flight recorder and trace epoch are dropped, and span
// collection is disabled. It is meant for tests.
func Reset() {
	enabled.Store(false)
	epoch.mu.Lock()
	epoch.t = time.Time{}
	epoch.mu.Unlock()
	resetTrace()
	flight.reset()
	Default.reset()
}
