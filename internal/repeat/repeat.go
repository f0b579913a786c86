// Package repeat verifies repeatability — the first rung of the ACM badging
// ladder the paper builds on ("repeatability: the same people use the same
// setup to repeat results"). It executes the same experiment definition
// several times on the same testbed, pairs the resulting measurement runs by
// their loop-variable combinations, and quantifies the deviation between
// executions. A deterministic testbed must produce bit-identical repetitions;
// a real one produces a deviation distribution that this report makes a
// publishable artifact instead of an anecdote.
package repeat

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"

	"pos/internal/core"
	"pos/internal/eval"
	"pos/internal/results"
)

// Config drives a repeatability check.
type Config struct {
	// Repetitions is the number of executions (>= 2).
	Repetitions int
	// Node and Artifact locate the MoonGen log to compare (e.g. "vriga",
	// "moongen.log").
	Node, Artifact string
	// Metric extracts the compared value from a run; nil defaults to
	// received Mpps.
	Metric func(eval.RunData) (float64, bool)
}

// Deviation is the comparison of one loop combination across executions.
type Deviation struct {
	// Combo is the run's loop-variable combination key.
	Combo string
	// Values holds the metric per execution, in execution order.
	Values []float64
	// MaxRelDev is max|v - mean| / mean (0 when mean == 0).
	MaxRelDev float64
}

// Report is the outcome of a repeatability check.
type Report struct {
	Experiment  string
	Repetitions int
	// Deviations has one entry per loop combination, sorted by key.
	Deviations []Deviation
	// MaxRelDev is the worst deviation across combinations.
	MaxRelDev float64
	// Identical reports bit-identical metrics across every execution.
	Identical bool
}

// Verify runs execute cfg.Repetitions times and compares the results each
// execution recorded, read back from its summary's ResultsDir. execute runs
// the experiment once, into a directory of its own: a campaign file through
// casestudy.Launch, or a Runner.Run.
func Verify(ctx context.Context, execute func(context.Context) (*core.Summary, error), cfg Config) (*Report, error) {
	if cfg.Repetitions < 2 {
		return nil, fmt.Errorf("repeat: need at least 2 repetitions, got %d", cfg.Repetitions)
	}
	if cfg.Node == "" || cfg.Artifact == "" {
		return nil, fmt.Errorf("repeat: Node and Artifact required")
	}
	metric := cfg.Metric
	if metric == nil {
		metric = func(r eval.RunData) (float64, bool) {
			if r.Failed || r.Report == nil {
				return 0, false
			}
			return r.Report.RxMpps(), true
		}
	}

	// Execute the repetitions, collecting combo -> value per execution.
	rep := &Report{Repetitions: cfg.Repetitions, Identical: true}
	perExec := make([]map[string]float64, 0, cfg.Repetitions)
	for i := 0; i < cfg.Repetitions; i++ {
		sum, err := execute(ctx)
		if err != nil {
			return nil, fmt.Errorf("repeat: execution %d: %w", i, err)
		}
		rep.Experiment = sum.Experiment
		rec, err := openResults(sum.ResultsDir)
		if err != nil {
			return nil, fmt.Errorf("repeat: execution %d: %w", i, err)
		}
		runs, err := eval.LoadRuns(rec, cfg.Node, cfg.Artifact)
		if err != nil {
			return nil, err
		}
		values := make(map[string]float64, len(runs))
		for _, r := range runs {
			if v, ok := metric(r); ok {
				values[core.Combination(r.LoopVars).Key()] = v
			}
		}
		if len(values) == 0 {
			return nil, fmt.Errorf("repeat: execution %d (%s) yielded no comparable runs", i, sum.ResultsDir)
		}
		perExec = append(perExec, values)
	}

	// Pair by combination.
	var keys []string
	for k := range perExec[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		d := Deviation{Combo: k}
		var sum float64
		complete := true
		for _, exec := range perExec {
			v, ok := exec[k]
			if !ok {
				complete = false
				break
			}
			d.Values = append(d.Values, v)
			sum += v
		}
		if !complete {
			return nil, fmt.Errorf("repeat: combination %s missing from some execution", k)
		}
		allEqual := true
		for _, v := range d.Values {
			if v != d.Values[0] {
				allEqual = false
				rep.Identical = false
			}
		}
		if !allEqual {
			mean := sum / float64(len(d.Values))
			for _, v := range d.Values {
				if mean != 0 {
					rel := math.Abs(v-mean) / mean
					if rel > d.MaxRelDev {
						d.MaxRelDev = rel
					}
				}
			}
		}
		if d.MaxRelDev > rep.MaxRelDev {
			rep.MaxRelDev = d.MaxRelDev
		}
		rep.Deviations = append(rep.Deviations, d)
	}
	return rep, nil
}

// openResults opens the experiment recorded at dir, a store's
// <root>/<user>/<experiment>/<id>.
func openResults(dir string) (*results.Experiment, error) {
	id, rest := filepath.Base(dir), filepath.Dir(dir)
	name, rest := filepath.Base(rest), filepath.Dir(rest)
	user, root := filepath.Base(rest), filepath.Dir(rest)
	store, err := results.NewStore(root)
	if err != nil {
		return nil, err
	}
	return store.OpenExperiment(user, name, id)
}

// Render writes the report as a publishable text artifact.
func (r *Report) Render() []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "Repeatability report: %s, %d executions\n", r.Experiment, r.Repetitions)
	if r.Identical {
		b.WriteString("result: IDENTICAL — every execution reproduced every run bit-for-bit\n")
	} else {
		fmt.Fprintf(&b, "result: max relative deviation %.4f%%\n", r.MaxRelDev*100)
	}
	fmt.Fprintf(&b, "%-40s %-14s %s\n", "combination", "max rel dev", "values")
	for _, d := range r.Deviations {
		vals := make([]string, len(d.Values))
		for i, v := range d.Values {
			vals[i] = fmt.Sprintf("%.6g", v)
		}
		fmt.Fprintf(&b, "%-40s %-14.6f %s\n", d.Combo, d.MaxRelDev, strings.Join(vals, " "))
	}
	return []byte(b.String())
}
