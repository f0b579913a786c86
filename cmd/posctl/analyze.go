package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pos/internal/telemetry"
	"pos/internal/timeline"
)

// cmdAnalyze answers "where did the time go" for a finished campaign: it
// assembles the experiment directory's record into a timeline, prints the
// critical-path phase attribution, stragglers, and replica utilization, and
// — with -baseline — diffs the phase profile against another run of the same
// experiment, failing (non-zero exit) when drift exceeds the threshold. With
// -chrome it also writes spans.json as a Chrome trace. It never writes into
// the experiment: the timeline is a view, recomputed on every call.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the assembled timeline (and drift) as JSON")
	baseline := fs.String("baseline", "", "baseline experiment directory to diff phase-by-phase against")
	threshold := fs.Float64("threshold", 0, "drift threshold as a fraction (default 0.25 = flag >25% growth)")
	chrome := fs.String("chrome", "", "also write spans.json as a Chrome trace-event file here (outside the experiment)")
	fs.Parse(args)
	if fs.NArg() < 1 {
		return fmt.Errorf("analyze: usage: posctl analyze <expdir> [flags]")
	}
	dir := fs.Arg(0)
	// Accept flags after the directory too (`posctl analyze DIR -baseline
	// BASE` reads naturally); the standard parser stops at the first
	// positional, so re-parse the remainder.
	if fs.NArg() > 1 {
		fs.Parse(fs.Args()[1:])
		if fs.NArg() > 0 {
			return fmt.Errorf("analyze: unexpected argument %q", fs.Arg(0))
		}
	}

	tl, err := timeline.Assemble(dir)
	if err != nil {
		return err
	}
	if *chrome != "" {
		if err := writeChrome(dir, *chrome); err != nil {
			return err
		}
	}

	var drift *timeline.Drift
	if *baseline != "" {
		base, err := timeline.Assemble(*baseline)
		if err != nil {
			return fmt.Errorf("analyze: baseline: %w", err)
		}
		drift = timeline.Compare(base, tl, *threshold)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		out := struct {
			Timeline *timeline.Timeline `json:"timeline"`
			Drift    *timeline.Drift    `json:"drift,omitempty"`
		}{tl, drift}
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		printTimeline(tl)
		if drift != nil {
			printDrift(drift)
		}
	}
	if drift != nil && drift.Flagged {
		return fmt.Errorf("analyze: performance drift past threshold (%.0f%%) against baseline %s",
			drift.Threshold*100, *baseline)
	}
	return nil
}

// writeChrome converts the experiment's spans.json to Chrome trace-event
// format at out, which must lie outside the experiment directory.
func writeChrome(dir, out string) error {
	absDir, errDir := filepath.Abs(dir)
	absOut, errOut := filepath.Abs(out)
	if err := errors.Join(errDir, errOut); err != nil {
		return err
	}
	if strings.HasPrefix(absOut, absDir+string(filepath.Separator)) {
		return fmt.Errorf("analyze: -chrome %s is inside the experiment; analyze never writes there", out)
	}
	recs, err := timeline.ReadSpans(dir)
	if err != nil {
		return err
	}
	data, err := telemetry.ChromeTrace(recs)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d spans) — load in chrome://tracing or https://ui.perfetto.dev\n", out, len(recs))
	return nil
}

func fmtMS(ms float64) string {
	d := time.Duration(ms * float64(time.Millisecond))
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fms", ms)
	}
}

func printTimeline(tl *timeline.Timeline) {
	fmt.Printf("campaign: %s\n", tl.Root)
	if tl.TraceID != "" {
		fmt.Printf("trace:    %s\n", tl.TraceID)
	}
	fmt.Printf("wall:     %s", fmtMS(tl.WallMS))
	if tl.QueueWaitMS > 0 {
		fmt.Printf(" (incl. %s queue wait", fmtMS(tl.QueueWaitMS))
		if tl.QueueUser != "" {
			fmt.Printf(" as %s", tl.QueueUser)
		}
		fmt.Print(")")
	}
	fmt.Println()
	fmt.Println("\nwhere the time went (critical path):")
	for _, p := range tl.Phases {
		fmt.Printf("  %-12s %10s  %5.1f%%\n", p.Phase, fmtMS(p.MS), p.Fraction*100)
	}
	if len(tl.Runs) > 0 {
		durs := make([]float64, 0, len(tl.Runs))
		failed := 0
		for _, r := range tl.Runs {
			durs = append(durs, r.DurMS)
			if r.Failed {
				failed++
			}
		}
		fmt.Printf("\nruns: %d", len(tl.Runs))
		if failed > 0 {
			fmt.Printf(" (%d failed)", failed)
		}
		fmt.Println()
	}
	for _, r := range tl.Replicas {
		fmt.Printf("replica %-12s %3d runs, busy %s of %s (idle %.0f%%)\n",
			r.Name+":", r.Runs, fmtMS(r.BusyMS), fmtMS(r.LaneMS), r.IdleFraction*100)
	}
	for _, s := range tl.Stragglers {
		fmt.Printf("straggler: %s %s took %s vs median %s (%.1fx)\n",
			s.Kind, s.Name, fmtMS(s.DurMS), fmtMS(s.MedianMS), s.Ratio)
	}
}

func printDrift(d *timeline.Drift) {
	fmt.Printf("\ndrift vs baseline (threshold %.0f%%):\n", d.Threshold*100)
	fmt.Printf("  %-12s %10s %10s %10s\n", "phase", "baseline", "current", "delta")
	for _, p := range d.Phases {
		flag := ""
		if p.Flagged {
			flag = "  <-- drift"
		}
		fmt.Printf("  %-12s %10s %10s %+10.1fms%s\n", p.Phase, fmtMS(p.BaseMS), fmtMS(p.CurMS), p.DeltaMS, flag)
	}
	verdict := "within threshold"
	if d.Flagged {
		verdict = "DRIFT DETECTED"
	}
	fmt.Printf("  wall: %s -> %s (%.2fx) — %s\n", fmtMS(d.BaseWall), fmtMS(d.CurWall), d.WallRatio, verdict)
}
