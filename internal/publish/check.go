package publish

import (
	"fmt"
	"sort"
	"strings"

	"pos/internal/results"
)

// Finding is one problem discovered by Check.
type Finding struct {
	// Severity is "error" (artifact incomplete) or "warning" (unusual
	// but publishable).
	Severity string
	// Path locates the problem.
	Path string
	// Msg explains it.
	Msg string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Severity, f.Path, f.Msg)
}

// CheckReport is the outcome of an artifact completeness check.
type CheckReport struct {
	Findings []Finding
	// RunsChecked counts the measurement runs inspected.
	RunsChecked int
}

// OK reports whether the artifact has no errors (warnings allowed).
func (r CheckReport) OK() bool {
	for _, f := range r.Findings {
		if f.Severity == "error" {
			return false
		}
	}
	return true
}

// Render formats the report for artifact-evaluation logs.
func (r CheckReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "artifact check: %d runs inspected, %d findings\n", r.RunsChecked, len(r.Findings))
	for _, f := range r.Findings {
		b.WriteString("  " + f.String() + "\n")
	}
	if r.OK() {
		b.WriteString("result: PUBLISHABLE\n")
	} else {
		b.WriteString("result: INCOMPLETE — fix the errors before release\n")
	}
	return b.String()
}

// Check verifies that an experiment's result tree is complete enough to
// publish: the experiment definition is archived, every measurement run has
// metadata and per-host outputs, run indices are contiguous, and failed runs
// are explicitly marked. This is the mechanical part of what an Artifact
// Evaluation Committee reviewer does by hand.
func Check(exp *results.Experiment) (CheckReport, error) {
	var rep CheckReport
	addErr := func(path, msg string) {
		rep.Findings = append(rep.Findings, Finding{Severity: "error", Path: path, Msg: msg})
	}
	addWarn := func(path, msg string) {
		rep.Findings = append(rep.Findings, Finding{Severity: "warning", Path: path, Msg: msg})
	}

	// The experiment definition must be part of the artifact.
	for _, required := range []string{
		"experiment/global-vars.json",
		"experiment/loop-variables.json",
		"experiment/topology.json",
	} {
		if _, err := exp.ReadExperimentArtifact(required); err != nil {
			addErr(required, "experiment definition artifact missing")
		}
	}

	runs, err := exp.Runs()
	if err != nil {
		return rep, err
	}
	if len(runs) == 0 {
		addErr("run_*", "no measurement runs recorded")
		return rep, nil
	}
	rep.RunsChecked = len(runs)

	// Contiguity: pos numbers runs 0..N-1; a hole means lost results.
	sort.Ints(runs)
	for i, run := range runs {
		if run != i {
			addErr(fmt.Sprintf("run_%04d", i), "missing run directory (indices must be contiguous)")
			break
		}
	}

	seenCombos := make(map[string]int, len(runs))
	for _, run := range runs {
		prefix := fmt.Sprintf("run_%04d", run)
		meta, err := exp.ReadRunMeta(run)
		if err != nil {
			addErr(prefix+"/metadata.json", "metadata missing or unreadable")
			continue
		}
		key := results.LoopKey(meta.LoopVars)
		if prev, dup := seenCombos[key]; dup {
			addWarn(prefix, fmt.Sprintf("duplicate loop combination (also run %d)", prev))
		}
		seenCombos[key] = run
		arts, err := exp.RunArtifacts(run)
		if err != nil || len(arts) == 0 {
			if meta.Failed {
				addWarn(prefix, "failed run without artifacts")
			} else {
				addErr(prefix, "successful run has no artifacts")
			}
			continue
		}
		if meta.Failed && meta.Error == "" {
			addWarn(prefix+"/metadata.json", "failed run without an error message")
		}
	}
	return rep, nil
}
