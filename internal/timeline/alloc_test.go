package timeline

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"pos/internal/results"
	"pos/internal/telemetry"
)

// The wrap step's budgets are 15 % above what was measured when they were
// set (go1.24, GOMAXPROCS 2, on top of 1eda340), rounded up. Assembling the
// 60-run fixture costs 1 475 objects; at 1eda340, with spans.json read
// through json.Decoder, each metadata.json through json.Unmarshal and the
// span tree built twice, it cost 4 486. Parsing the fixture's 187 spans
// costs 3.70 objects a span (12.57 through json.Decoder).
const (
	assembleAllocBudget     = 1697
	parseSpansPerSpanBudget = 4.3
)

// writeAppendixArchive writes the record of a 60-run bare-metal Appendix-A
// campaign into dir, shaped as the runner writes it: spans.json with the
// experiment span, boot and setup with a child per host, and one "run N"
// span with an exec per host for each run (187 spans), and each run's
// metadata.json. It returns the spans.json bytes.
func writeAppendixArchive(t testing.TB, dir string) []byte {
	t.Helper()
	now := time.Date(2021, 10, 12, 11, 20, 32, 230471000, time.UTC)
	tr := telemetry.NewTrace("experiment:linux-router-pos")
	tr.SetProcess("runner")
	tr.SetClock(func() time.Time {
		now = now.Add(137 * time.Microsecond)
		return now
	})
	hosts := []string{"vtartu", "vriga"}
	root := tr.Root()
	for _, phase := range []string{"boot", "setup"} {
		span := root.StartChild(phase, "replica", "")
		for _, host := range hosts {
			span.StartChild(phase + ":" + host).End()
		}
		span.End()
	}
	for run := 0; run < 60; run++ {
		vars := map[string]string{
			"pkt_rate": strconv.Itoa(10000 * (run%30 + 1)),
			"pkt_sz":   []string{"64", "1500"}[run/30],
		}
		span := root.StartChild(fmt.Sprintf("run %d", run), "combo", results.LoopKey(vars), "replica", "")
		started := now
		for _, host := range hosts {
			span.StartChild("exec:"+host, "phase", "measurement").End()
		}
		span.End()
		meta, err := json.MarshalIndent(results.RunMeta{Run: run, LoopVars: vars, StartedAt: started, FinishedAt: now}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		runDir := filepath.Join(dir, fmt.Sprintf("run_%04d", run))
		if err := os.Mkdir(runDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(runDir, "metadata.json"), append(meta, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tr.Finish()
	spans, err := tr.RenderJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), spans, 0o644); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestAssembleAllocations holds the wrap step of a campaign to its budget:
// spans.json and the runs' metadata.json decoded by hand, and one span tree
// for the critical path and the replica lanes.
func TestAssembleAllocations(t *testing.T) {
	dir := t.TempDir()
	writeAppendixArchive(t, dir)
	tl, err := Assemble(dir)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Spans != 187 || len(tl.Runs) != 60 || tl.Runs[59].Run != 59 || tl.Root != "experiment:linux-router-pos" {
		t.Fatalf("fixture assembled to %d spans, %d runs, root %q", tl.Spans, len(tl.Runs), tl.Root)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Assemble(dir); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Assemble of 60 runs: %.0f allocations (budget %d)", allocs, assembleAllocBudget)
	if allocs > assembleAllocBudget {
		t.Errorf("Assemble allocates %.0f objects, budget %d", allocs, assembleAllocBudget)
	}
}

func TestParseSpansAllocations(t *testing.T) {
	spans := writeAppendixArchive(t, t.TempDir())
	recs, err := telemetry.ParseSpans(spans)
	if err != nil || len(recs) != 187 {
		t.Fatalf("ParseSpans: %d spans, %v", len(recs), err)
	}
	perSpan := testing.AllocsPerRun(20, func() {
		if _, err := telemetry.ParseSpans(spans); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(recs))
	t.Logf("ParseSpans: %.2f allocations a span (budget %.1f)", perSpan, parseSpansPerSpanBudget)
	if perSpan > parseSpansPerSpanBudget {
		t.Errorf("ParseSpans allocates %.2f objects a span, budget %.1f", perSpan, parseSpansPerSpanBudget)
	}
}
