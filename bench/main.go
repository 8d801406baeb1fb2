// Command bench is the repository's one benchmark of the scan path: a CT
// volume goes in, an enhance → segment → classify verdict comes out. It
// drives five workloads (in-process enhancement, in-process
// classification, the HTTP server on misses, the same server on cache
// hits, and the sharding gateway over two replicas), checks every answer
// against an in-process reference, and prints the metrics BENCHMARK.json
// names. See README.md.
//
// With -workload it runs that workload once in this process and prints a
// one-line JSON report last. Without, it runs every workload, each in a
// child process of its own, and prints one report for the suite.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs the suite, one child process per workload")
		seed    = flag.Int64("seed", 1, "seed the scan volumes are generated from")
		seconds = flag.Float64("seconds", 10, "seconds of timed ops per run")
		trace   = flag.Int("trace", 0, "1 records spans, runs the layer probes and reports the per-layer metrics")
		sets    = flag.Int("sets", 1, "suite only: run the suite this many times and compare the sets")
		out     = flag.String("out", "", "suite only: also write the report to this file")
		spec    = flag.String("spec", "BENCHMARK.json", "suite only: the benchmark's definition")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *sets < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name] [-seed n] [-seconds s] [-trace 0|1] [-sets n] [-out file]")
		os.Exit(2)
	}
	printHost()

	if *name == "" {
		os.Exit(suite(*spec, *seed, *seconds, *trace == 1, *sets, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	rep, err := run(runConfig{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1,
		traceDir: filepath.Join("bench", "out"), log: os.Stderr})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	// A traced run reports the per-layer metrics only: its end-to-end
	// numbers come from a window a quarter as long as an untraced run's.
	if *trace == 1 {
		for _, n := range endToEnd {
			delete(rep.Metrics, n)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// printHost states the facts a number from this box depends on.
func printHost() {
	model := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	fmt.Fprintf(os.Stderr, "host: nproc=%d GOMAXPROCS=%d %s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model)
}
