package kernels

import (
	"os"
	"strings"
	"testing"
)

// TestCPUProbesAgreeWithCPUInfo holds the CPUID probes to the kernel's
// own reading of the CPU: cpuHasAVX to the avx flag of /proc/cpuinfo
// and cpuHasAVX512 to avx512f, which Linux lists only when it saves
// the state the instructions use. It skips where there is no such
// file.
func TestCPUProbesAgreeWithCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	for _, p := range []struct {
		flag string
		got  bool
	}{{"avx", cpuHasAVX()}, {"avx512f", cpuHasAVX512()}} {
		if p.got != flags[p.flag] {
			t.Errorf("probe says %v for %s, /proc/cpuinfo says %v", p.got, p.flag, flags[p.flag])
		}
	}
}

// BenchmarkLaneCeiling times the block kernels' instruction pattern
// alone — twelve independent VMULPS-then-VADDPS chains on registers,
// YMM and ZMM — for the ceiling each kernel's BenchmarkGemmBlock rate
// is a fraction of, on the same host.
func BenchmarkLaneCeiling(b *testing.B) {
	for _, c := range []struct {
		name  string
		lanes int
		has   bool
		run   func(int)
	}{{"ymm", 8, useAVX, laneCeilingY}, {"zmm", 16, useAVX512, laneCeilingZ}} {
		b.Run(c.name, func(b *testing.B) {
			if !c.has {
				b.Skip("not on this CPU")
			}
			const rounds = 1 << 12
			for i := 0; i < b.N; i++ {
				c.run(rounds)
			}
			b.ReportMetric(float64(12*c.lanes*rounds)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}
