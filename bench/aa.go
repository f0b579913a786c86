package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the A/A mode judges by and the
// smoke test holds the program to.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []metricSpec            `json:"end_to_end"`
	PerLayer  []metricSpec            `json:"per_layer"`
}

type metricSpec struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end metrics only
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// quartiles follows Python's statistics.quantiles(values, n=4), the rule
// the benchmark's contract judges spreads by.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sortedCopy(values)
	n := len(data)
	if n < 2 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runAA runs two interleaved sets (A B A B …) of n full runs of this same
// binary, one child process per workload run as the driver does it, and
// prints per workload × metric both medians, quartiles, spreads and the
// relative difference. An end-to-end metric whose medians differ by more than
// its bound, or whose spread (setup_s excepted) exceeds it, is an error: a
// benchmark that disagrees with itself can gate nothing.
func runAA(ctx context.Context, o options, names []string) error {
	n, seconds := o.aa, o.seconds
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("A/A mode runs from the repository root: %w", err)
	}
	// values[set][workload][metric] in run order
	var values [2]map[string]map[string][]float64
	for s := range values {
		values[s] = map[string]map[string][]float64{}
		for _, name := range names {
			values[s][name] = map[string][]float64{}
		}
	}
	for i := 1; i <= n; i++ {
		for s := range values {
			for _, name := range names {
				out, err := child(ctx, o, name, uint64(i), false).Output()
				if err != nil {
					return fmt.Errorf("%s run %d: %w", name, i, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var line struct {
					Correct bool `json:"correct"`
					Metrics map[string]struct {
						Value float64 `json:"value"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
					return fmt.Errorf("%s run %d: %w", name, i, err)
				}
				if !line.Correct {
					return fmt.Errorf("%s run %d: ops failed", name, i)
				}
				for metric, v := range line.Metrics {
					values[s][name][metric] = append(values[s][name][metric], v.Value)
				}
				fmt.Fprintf(os.Stderr, "A/A: run %d/%d set %c %s done\n", i, n, 'A'+s, name)
			}
		}
	}

	fmt.Printf("A/A: two interleaved sets of %d runs of one binary, %.0f s timed per run, seeds 1..%d.\n\n", n, seconds, n)
	fmt.Println("`diff` is how much worse set B's median is than set A's (negative: better), `spread` is (Q3−Q1)/median of a set.")
	fmt.Println()
	fmt.Println("| workload | metric | A median | A Q1–Q3 | B median | B Q1–Q3 | spread A | spread B | diff | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|")
	var over []string
	for _, name := range names {
		for _, m := range bf.EndToEnd {
			a1, a2, a3 := quartiles(values[0][name][m.Name])
			b1, b2, b3 := quartiles(values[1][name][m.Name])
			diff := (b2 - a2) / a2
			if m.Better == "higher" {
				diff = -diff
			}
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			switch {
			case math.Abs(diff) > m.Bound:
				verdict = "DIFFERS"
			case m.Name != "setup_s" && max(spreadA, spreadB) > m.Bound:
				verdict = "WIDE"
			}
			if verdict != "ok" {
				over = append(over, name+"/"+m.Name)
			}
			fmt.Printf("| %s | %s | %.5g | %.5g–%.5g | %.5g | %.5g–%.5g | %.1f%% | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				name, m.Name, a2, a1, a3, b2, b1, b3, 100*spreadA, 100*spreadB, 100*diff, 100*m.Bound, verdict)
		}
	}
	if len(over) > 0 {
		sort.Strings(over)
		return fmt.Errorf("A/A sets differ, or spread, by more than the bound on %v", over)
	}
	return nil
}
