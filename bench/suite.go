package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the suite reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// sample is one metric of one workload in the suite's report; n is the
// number of ops it was measured over.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

type suiteReport map[string]map[string]sample

// child runs one workload in a process of its own — a clean heap and its
// own set-up — and parses the last line it prints.
func child(name string, seed int64, seconds float64, trace bool) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return rep, fmt.Errorf("%s: no report (%v): %w", name, runErr, err)
	}
	return rep, nil // a child that reports failed ops exits 1; the report says so itself
}

// suite runs every workload sets times, alternating the order, prints the
// last set's report on stdout and a table on stderr, and returns the exit
// code: 1 if any op failed or two sets disagree by more than a bound.
func suite(specPath string, seed int64, seconds float64, trace bool, sets int, out string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	var all []suiteReport
	for s := 0; s < sets; s++ {
		rep := suiteReport{}
		for i := range spec.Workloads {
			if s%2 == 1 {
				i = len(spec.Workloads) - 1 - i
			}
			name := spec.Workloads[i].Name
			r, err := child(name, seed, seconds, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !r.Correct {
				code = 1
			}
			rep[name] = map[string]sample{
				"failed_share": {float64(r.Failed) / math.Max(1, float64(r.Attempted)), "share", r.Attempted},
			}
			for k, m := range r.Metrics {
				rep[name][k] = sample{m.Value, m.Unit, r.Attempted}
			}
		}
		all = append(all, rep)
	}

	last := all[len(all)-1]
	names := []string{"failed_share"}
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	for _, m := range spec.PerLayer {
		names = append(names, m.Name)
	}
	fmt.Fprintf(os.Stderr, "\n%-22s", "metric")
	for _, w := range spec.Workloads {
		fmt.Fprintf(os.Stderr, " %15s", w.Name)
	}
	fmt.Fprintln(os.Stderr)
	for _, n := range names {
		if _, ok := last[spec.Workloads[0].Name][n]; !ok {
			continue // the other trace mode's metric
		}
		fmt.Fprintf(os.Stderr, "%-22s", n)
		for _, w := range spec.Workloads {
			fmt.Fprintf(os.Stderr, " %15.4f", last[w.Name][n].Value)
		}
		fmt.Fprintf(os.Stderr, "  %s\n", last[spec.Workloads[0].Name][n].Unit)
	}
	fmt.Fprintln(os.Stderr, "tail_ms and peak_rss_mb are never gated: with nproc closed-loop callers no queue forms, so the tail")
	fmt.Fprintln(os.Stderr, "measures the host's scheduler, and the peak depends on when the collector last ran.")

	// Agreement between sets of runs of the same code.
	if sets > 1 && !trace {
		fmt.Fprintf(os.Stderr, "\n%-16s %-12s %12s %12s %8s %6s\n", "workload", "metric", "set 1", "set "+strconv.Itoa(sets), "diff", "bound")
		for _, w := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				lo, hi := math.Inf(1), math.Inf(-1)
				for _, rep := range all {
					v := rep[w.Name][m.Name].Value
					lo, hi = math.Min(lo, v), math.Max(hi, v)
				}
				diff := (hi - lo) / lo
				verdict := ""
				if diff > m.Bound {
					verdict, code = "  DISAGREE", 1
				}
				fmt.Fprintf(os.Stderr, "%-16s %-12s %12.4f %12.4f %7.1f%% %5.0f%%%s\n", w.Name, m.Name,
					all[0][w.Name][m.Name].Value, last[w.Name][m.Name].Value, 100*diff, 100*m.Bound, verdict)
			}
		}
	}

	data, err := json.MarshalIndent(last, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(data))
	if out != "" {
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}
