package kernels

import (
	"fmt"
	"math/rand"
	"sync"

	"computecovid19/internal/obs"
)

// Measured joins one DDnet inference's *measured* wall time with the
// *static* Table 6 traffic model, so achieved GFLOP/s and GB/s — a live
// roofline for the Go kernels — fall out per kernel class. The paper
// derives its FPGA/GPU projections from exactly this pairing; here both
// sides come from the same process, so the ratio is honest.
type Measured struct {
	Timing Timing
	Counts ClassCounts
}

// Achieved is one kernel class's measured operating point.
type Achieved struct {
	Seconds float64
	GFLOPS  float64
	GBps    float64
}

func achieved(c Counters, seconds float64) Achieved {
	if seconds <= 0 {
		return Achieved{}
	}
	return Achieved{
		Seconds: seconds,
		GFLOPS:  float64(c.Flops) / seconds / 1e9,
		GBps:    float64(c.Bytes()) / seconds / 1e9,
	}
}

// Conv returns the convolution class's achieved rates.
func (m Measured) Conv() Achieved { return achieved(m.Counts.Conv, m.Timing.Conv.Seconds()) }

// Deconv returns the deconvolution class's achieved rates.
func (m Measured) Deconv() Achieved { return achieved(m.Counts.Deconv, m.Timing.Deconv.Seconds()) }

// Other returns the pool/unpool/BN/activation class's achieved rates.
func (m Measured) Other() Achieved { return achieved(m.Counts.Other, m.Timing.Other.Seconds()) }

// Total returns the whole-inference achieved rates.
func (m Measured) Total() Achieved {
	return achieved(m.Counts.Total(), m.Timing.Total().Seconds())
}

// Telemetry handles for the measured roofline. The gauges hold the
// most recent measurement per (class, rung) pair — one roofline point
// per optimization-ladder rung — and the counters accumulate lifetime
// work, mirroring what a hardware counter would report. Gauges are
// created lazily because the rung set is open (registry).
var (
	kernelFlopsTotal = obs.GetCounter("kernels_flops_total")
	kernelBytesTotal = obs.GetCounter("kernels_bytes_total")
	kernelSeconds    = obs.GetHistogram("kernels_inference_seconds", nil)

	gaugeMu     sync.Mutex
	gflopsByKey = map[string]*obs.Gauge{}
	gbpsByKey   = map[string]*obs.Gauge{}
)

func rooflineGauges(class, rung string) (gflops, gbps *obs.Gauge) {
	gaugeMu.Lock()
	defer gaugeMu.Unlock()
	key := class + "|" + rung
	gflops, ok := gflopsByKey[key]
	if !ok {
		gflops = obs.GetGauge(fmt.Sprintf(`kernels_achieved_gflops{class=%q,rung=%q}`, class, rung))
		gflopsByKey[key] = gflops
	}
	gbps, ok = gbpsByKey[key]
	if !ok {
		gbps = obs.GetGauge(fmt.Sprintf(`kernels_achieved_gbps{class=%q,rung=%q}`, class, rung))
		gbpsByKey[key] = gbps
	}
	return gflops, gbps
}

// MeasureDDnetImpl runs one full DDnet inference with the given
// registry rung, pairs the measured per-class wall time with the
// static counter model, publishes the operating point to obs (span
// "kernels/ddnet_inference", flop/byte counters, per-class-and-rung
// achieved GFLOP/s and GB/s gauges), and returns the pairing.
func MeasureDDnetImpl(cfg Arch, size int, im *Impl, workers int, rng *rand.Rand) Measured {
	sp := obs.Start("kernels/ddnet_inference")
	if sp != nil {
		sp.SetAttr("rung", im.Name)
		sp.SetAttr("variant", im.Variant.String())
		sp.SetAttr("size", size)
		sp.SetAttr("workers", workers)
	}
	t := RunDDnetImpl(cfg, size, im, workers, rng)
	sp.End()

	m := Measured{Timing: t, Counts: DDnetCounts(cfg, size)}
	total := m.Counts.Total()
	kernelFlopsTotal.Add(total.Flops)
	kernelBytesTotal.Add(total.Bytes())
	kernelSeconds.Observe(t.Total().Seconds())
	for _, cl := range []struct {
		name string
		a    Achieved
	}{{"conv", m.Conv()}, {"deconv", m.Deconv()}, {"other", m.Other()}} {
		gflops, gbps := rooflineGauges(cl.name, im.Name)
		gflops.Set(cl.a.GFLOPS)
		gbps.Set(cl.a.GBps)
	}
	return m
}

// String renders the operating point the way a roofline plot reads:
// seconds, then achieved compute and bandwidth per class.
func (m Measured) String() string {
	row := func(name string, a Achieved) string {
		return fmt.Sprintf("%-7s %9.2fms %8.2f GFLOP/s %8.2f GB/s\n",
			name, a.Seconds*1e3, a.GFLOPS, a.GBps)
	}
	return row("conv", m.Conv()) + row("deconv", m.Deconv()) +
		row("other", m.Other()) + row("total", m.Total())
}
