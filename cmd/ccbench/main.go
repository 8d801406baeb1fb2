// Command ccbench regenerates every table and figure of the paper's
// evaluation section and prints them with the paper's own numbers
// alongside, so shape agreement can be read off directly.
//
// Usage:
//
//	ccbench [-quick] [-only table3] [-seed 1]
//
// The full run trains the demo-scale networks and takes a few minutes on
// one CPU; -quick halves the training budgets. An -only name that is not
// one of the items below exits 2 with the list of valid names. Serving,
// cluster, sharding and memory measurements live in bench/ (run
// `bash bench/run.sh`), not here.
//
// Telemetry: -trace writes a Chrome trace_event JSON of the whole
// benchmark run, -metrics a Prometheus text (or .json) dump, and -pprof
// serves net/http/pprof for live profiling.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"computecovid19/internal/experiments"
	"computecovid19/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "reduced-scale run (same settings as the test suite)")
	only := flag.String("only", "", "comma-separated subset, e.g. table3,figure13")
	seed := flag.Int64("seed", 1, "experiment seed")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file on exit")
	metricsPath := flag.String("metrics", "", "write metrics on exit (.json = JSON dump, else Prometheus text)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	kernelsOut := flag.String("kernelsout", "", "write the kernel ladder benchmark's machine-readable report here (BENCH_kernels.json)")
	flag.Parse()

	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	cfg.Seed = *seed

	// The accuracy bundle is shared by table8/table9/figure11/12/13.
	var acc *experiments.AccuracyResult
	type item struct {
		name string
		run  func() string
	}
	items := []item{
		{"table1", func() string { return experiments.Table1(cfg) }},
		{"table2", func() string { return experiments.Table2(cfg) }},
		{"table3", func() string { return experiments.Table3(cfg) }},
		{"table4", func() string { return experiments.Table4(cfg) }},
		{"table5", func() string { return experiments.Table5(cfg) }},
		{"table6", func() string { return experiments.Table6(cfg) }},
		{"table7", func() string { return experiments.Table7(cfg) }},
		{"table8", func() string { return experiments.Table8(acc) }},
		{"table9", func() string { return experiments.Table9(acc) }},
		{"table10", func() string { return experiments.Table10(cfg) }},
		{"figure2", func() string { return experiments.Figure2(cfg) }},
		{"figure8", func() string { return experiments.Figure8(cfg) }},
		{"figure11", func() string { return experiments.Figure11(acc) }},
		{"figure12", func() string { return experiments.Figure12(acc) }},
		{"figure13", func() string { return experiments.Figure13(acc) }},
		{"timings", func() string { return experiments.SectionTimings(cfg) }},
		{"turnaround", func() string { return experiments.Turnaround(cfg) }},
		{"ablation", func() string { return experiments.Ablation(cfg) }},
		{"dimensionality", func() string { return experiments.Dimensionality(cfg) }},
		{"kernels", func() string { return experiments.KernelsBench(cfg, *kernelsOut) }},
	}
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.name
	}
	want, err := selection(*only, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(2)
	}
	sel := func(name string) bool { return len(want) == 0 || want[name] }

	log := obs.Log()
	flush, err := obs.Setup(*tracePath, *metricsPath, *pprofAddr)
	if err != nil {
		log.Error("telemetry setup failed", "err", err)
		os.Exit(1)
	}
	// flush errors (an unwritable trace/metrics file) must fail the run.
	defer func() {
		if err := flush(); err != nil {
			os.Exit(1)
		}
	}()

	if sel("table8") || sel("table9") || sel("figure11") || sel("figure12") || sel("figure13") {
		log.Info("running the accuracy experiment (trains DDnet + classifier)")
		start := time.Now()
		acc = experiments.RunAccuracy(cfg)
		log.Info("accuracy experiment done", "elapsed", time.Since(start).Round(time.Second))
	}

	for _, it := range items {
		if !sel(it.name) {
			continue
		}
		fmt.Println(it.run())
		fmt.Println()
	}
}

// selection parses -only into the set of requested item names (empty:
// run everything). Every name must be one of names, so a typo or a
// retired item fails loudly instead of silently selecting nothing.
func selection(only string, names []string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	known := make(map[string]bool, len(names))
	for _, n := range names {
		known[n] = true
	}
	for _, name := range strings.Split(only, ",") {
		name = strings.ToLower(strings.TrimSpace(name))
		if !known[name] {
			return nil, fmt.Errorf("unknown -only name %q; valid names: %s", name, strings.Join(names, ", "))
		}
		want[name] = true
	}
	return want, nil
}
