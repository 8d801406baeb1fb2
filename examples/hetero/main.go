// Hetero: sweep DDnet inference across the paper's six evaluation
// platforms (projected through the roofline model) and across the
// Table 7 optimization ladder, then measure the actual Go kernels on
// this machine for comparison.
package main

import (
	"fmt"
	"math/rand"

	"computecovid19/internal/ddnet"
	"computecovid19/internal/device"
	"computecovid19/internal/kernels"
)

func main() {
	cc := kernels.DDnetCounts(ddnet.PaperConfig().Arch(), 512)
	fmt.Printf("paper DDnet at 512²: conv %.1f GFLOP, deconv %.1f GFLOP, %.1f GB raw traffic\n\n",
		float64(cc.Conv.Flops)/1e9, float64(cc.Deconv.Flops)/1e9,
		float64(cc.Total().Bytes())/1e9)

	fmt.Println("projected inference time by platform and optimization level (seconds):")
	fmt.Printf("%-30s %10s %10s %10s %10s\n", "platform", "Baseline", "+REF", "+PF", "+LU")
	for _, p := range device.Catalog() {
		fmt.Printf("%-30s", p.Name)
		for v := kernels.Baseline; v <= kernels.REFPFLU; v++ { // the paper's Table 7 ladder
			fmt.Printf(" %10.2f", p.Project(cc, v, false).Total())
		}
		fmt.Println()
	}
	fpga, _ := device.PlatformByName("Intel Arria 10 GX 1150 FPGA")
	opt := fpga.Project(cc, kernels.REFPFLU, true)
	fmt.Printf("\nFPGA with §4.2.3 vendor optimizations (CU×2, vectorize×5, runtime reconfig): %.2f s (paper: 16.74 s)\n\n", opt.Total())

	// Measured: the real Go kernels on this machine at a reduced size.
	const size = 64
	rng := rand.New(rand.NewSource(1))
	fmt.Printf("measured on this machine (Go kernels, DDnet at %d²):\n", size)
	for v := kernels.Baseline; v <= kernels.REFPFLU; v++ {
		t := kernels.RunDDnet(ddnet.PaperConfig().Arch(), size, v, 0, rng)
		fmt.Printf("  %-26s conv %7.3fs  deconv %7.3fs  other %6.3fs  total %7.3fs\n",
			v, t.Conv.Seconds(), t.Deconv.Seconds(), t.Other.Seconds(), t.Total().Seconds())
	}
	fmt.Println("\nthe scatter→gather deconvolution refactoring (REF) dominates, as in the paper's Table 7")
}
