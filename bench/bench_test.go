package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload for 2 warm-up and 3 timed bursts, untraced
// and traced, on seed 1: the golden digests hold, the steps partition the op,
// and every metric BENCHMARK.json names is emitted with its unit.
func TestSmoke(t *testing.T) {
	c, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(workloadNames))
	}
	for _, wl := range c.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(runConfig{Workload: wl.Name, Seed: 1, MaxOps: 3, Warmup: 2, Setups: 1, Trace: traced, Dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			if res.failed != 0 || res.attempted < 3 {
				t.Fatalf("%s: %d ops attempted, %d failed: %v", wl.Name, res.attempted, res.failed, res.firstErr)
			}
			for _, op := range res.samples {
				sum := op.steps[0] + op.steps[1] + op.steps[2]
				if math.Abs(float64(sum-op.total)) > 0.05*float64(op.total) {
					t.Errorf("%s: steps %v sum to %v, op took %v", wl.Name, op.steps, sum, op.total)
				}
			}
			want, got := c.EndToEnd, res.endToEnd()
			if traced {
				want, got = c.PerLayer, res.perLayer()
			}
			emitted := map[string]string{}
			for _, m := range got {
				emitted[m.Name] = m.Unit
				if m.Missing {
					// Reported as null, never an error: a later change may
					// delete the mechanism behind a layer metric.
					t.Logf("%s: %s has no source in the program", wl.Name, m.Name)
				}
			}
			if len(emitted) != len(want) {
				t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", wl.Name, len(emitted), len(want))
			}
			for _, m := range want {
				if unit, ok := emitted[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s: metric %s [%s] emitted as [%s] (present: %v)", wl.Name, m.Name, m.Unit, unit, ok)
				}
			}
			if traced {
				rec := buildRecord(res, environment{})
				for _, f := range rec.Flags {
					if strings.Contains(f, "cover_ratio") {
						t.Errorf("%s: %s", wl.Name, f)
					}
				}
			}
		}
	}
}

// TestGoldenCoversSeeds: the committed digests pin seeds 1 and 2 of every
// workload.
func TestGoldenCoversSeeds(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, seed := range []string{"1", "2"} {
			if len(g[name][seed]) == 0 {
				t.Errorf("golden.json has no digest for %s seed %s", name, seed)
			}
		}
	}
}

// TestNoMechanismKnobs keeps the benchmark on the program's entry points: it
// imports pos/internal/... only and never names a mechanism knob, so a later
// change may delete a mechanism without editing the benchmark.
func TestNoMechanismKnobs(t *testing.T) {
	forbidden := map[string]bool{"Shards": true, "WithScalarEngine": true, "NoIndex": true, "NoDedup": true, "Batching": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "pos" || (strings.HasPrefix(path, "pos/") && !strings.HasPrefix(path, "pos/internal/")) {
				t.Errorf("%s imports %s: only pos/internal/... entry points are allowed", file, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && forbidden[id.Name] {
				t.Errorf("%s: names the mechanism knob %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}

// TestQuartilesMatchPython pins the A/A judge to the rule the contract names,
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 7, 3, 9, 2, 8, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1,2,4,8,16 = %v %v %v, Python gives 1.5 4 12", q1, q2, q3)
	}
	// Two and three values: Python reaches past the ends (-aa 2, -aa 3).
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v, Python gives 0.75 1.5 2.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 1,2,4 = %v %v %v, Python gives 1 2 4", q1, q2, q3)
	}
}

// TestQuietSlices: slices hold whole bursts between marks, every timing
// metric is measured over the ops of the same quietest slices, and what
// completes after the last mark is left out.
func TestQuietSlices(t *testing.T) {
	op := func(total, s1 time.Duration) opResult {
		return opResult{total: total, steps: [3]time.Duration{s1, total - s1, 0}}
	}
	ms := time.Millisecond
	r := &runResult{
		w:     &dataplaneSweep{},
		marks: []sliceMark{{0, 0}, {1000 * ms, 900 * ms}, {2100 * ms, 1500 * ms}},
		bursts: []burstStamp{
			{at: 500 * ms, busy: 500 * ms, ops: []opResult{op(40*ms, 5*ms)}},
			{at: 1000 * ms, busy: 500 * ms, ops: []opResult{op(60*ms, 5*ms)}},
			{at: 2100 * ms, busy: 1000 * ms, ops: []opResult{op(30*ms, 20*ms), op(30*ms, 20*ms), op(30*ms, 20*ms)}},
			{at: 2500 * ms, busy: 400 * ms, ops: []opResult{op(1*ms, 1*ms)}},
		},
	}
	parts := r.cut()
	if len(parts) != 2 || len(parts[0].ops) != 2 || len(parts[1].ops) != 3 {
		t.Fatalf("slices = %+v, want two holding 2 and 3 ops", parts)
	}
	// The second slice is the quiet one, and the late half; step1 is its 20 ms
	// although the first slice's is lower.
	q := quiet(parts)
	want := sliceStats{Ops: 3, OpP50: 30, StepP50: [3]float64{20, 10, 0}, OpsPerS: 3, CPUPerOp: 200}
	if q != want {
		t.Errorf("quiet = %+v, want %+v", q, want)
	}
	if late := quiet(lateHalf(parts)); late != want {
		t.Errorf("late half = %+v, want %+v", late, want)
	}
	// Five slices: a fifth is one, the late half is the last three.
	five := []timeSlice{{p50: 5}, {p50: 1}, {p50: 4}, {p50: 3}, {p50: 2}}
	if late := lateHalf(five); len(late) != 3 || late[0].p50 != 4 {
		t.Errorf("late half of five = %+v", late)
	}
}
