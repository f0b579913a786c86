package main

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"pos/internal/casestudy"
	"pos/internal/telemetry"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns what
// it printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	orig := os.Stdout
	os.Stdout = f
	runErr := fn()
	os.Stdout = orig
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// pinnedSpec is a two-run vpos sweep with the wall clock pinned.
const pinnedSpec = `# two runs, byte-identical on every rerun
flavor: vpos
sizes: [64]
rates: [10000, 20000]
seed: 3
epoch: 2021-10-12T11:20:32Z
`

// writeSpec writes a campaign.yml into a fresh directory and returns its path.
func writeSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.yml")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runPinned performs `posctl run -f` on pinnedSpec and returns the
// experiment directory it wrote.
func runPinned(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	spec := writeSpec(t, pinnedSpec)
	out, err := captureStdout(t, func() error {
		return cmdRun([]string{"-f", spec, "-results", root})
	})
	if err != nil {
		t.Fatalf("posctl run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "run   2/2") {
		t.Errorf("console progress lacks the last run counted from 1:\n%s", out)
	}
	dirs, err := filepath.Glob(filepath.Join(root, "user", "linux-router-vpos", "*"))
	if err != nil || len(dirs) != 1 {
		t.Fatalf("experiment dirs = %v, %v", dirs, err)
	}
	return dirs[0]
}

// TestRunRecordsOneReproducibleJournal drives posctl the way a user checks a
// rerun: the same pinned single-testbed run twice, then diff and events.
func TestRunRecordsOneReproducibleJournal(t *testing.T) {
	t.Cleanup(func() { telemetry.Default.SetEnabled(true) })
	a, b := runPinned(t), runPinned(t)

	if out, err := captureStdout(t, func() error { return cmdDiff([]string{"-a", a, "-b", b}) }); err != nil {
		t.Fatalf("posctl diff: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(a, "events", "events-00000.jsonl")); err != nil {
		t.Fatalf("no event journal: %v", err)
	}
	// The tree names the spec it ran: archived resolved, it parses back to
	// the file the run was given.
	archived, err := os.ReadFile(filepath.Join(a, "experiment", "campaign.yml"))
	if err != nil {
		t.Fatalf("no archived spec: %v", err)
	}
	got, err := casestudy.ParseSpec(archived)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := casestudy.ParseSpec([]byte(pinnedSpec)); !reflect.DeepEqual(got, want) {
		t.Errorf("archived spec = %+v, ran %+v", got, want)
	}
	for _, gone := range []string{"experiment.log", "experiment-trace.json"} {
		if _, err := os.Stat(filepath.Join(a, gone)); !os.IsNotExist(err) {
			t.Errorf("%s written beside the journal: %v", gone, err)
		}
	}

	out, err := captureStdout(t, func() error { return cmdWatch([]string{"-dir", a}) })
	if err != nil {
		t.Fatalf("posctl watch -dir: %v", err)
	}
	for _, want := range []string{
		"setup        booting hosts",
		"setup        [vriga] running setup script",
		"setup        [vtartu] running setup script",
		"measurement  run   1/2  pkt_rate=10000,pkt_sz=64",
		"measurement  run   2/2  pkt_rate=20000,pkt_sz=64",
	} {
		if strings.Count(out, want) != 1 {
			t.Errorf("posctl watch -dir lists %q %d times, want once:\n%s", want, strings.Count(out, want), out)
		}
	}
}

// TestPlotWritesInNameOrder: plot reports the figure files it wrote sorted by
// name, the same on every invocation.
func TestPlotWritesInNameOrder(t *testing.T) {
	t.Cleanup(func() { telemetry.Default.SetEnabled(true) })
	root := filepath.Dir(filepath.Dir(filepath.Dir(runPinned(t))))
	for i := 0; i < 4; i++ {
		out, err := captureStdout(t, func() error {
			return cmdPlot([]string{"-dir", root, "-exp", "linux-router-vpos"})
		})
		if err != nil {
			t.Fatalf("posctl plot: %v\n%s", err, out)
		}
		lines := strings.Split(strings.TrimSpace(out), "\n")
		if len(lines) != 3 || !sort.StringsAreSorted(lines) {
			t.Fatalf("plot output not three lines in name order:\n%s", out)
		}
		for _, line := range lines {
			if _, err := os.Stat(strings.TrimPrefix(line, "wrote ")); err != nil {
				t.Errorf("plot reported a file it did not write: %v", err)
			}
		}
	}
}

// TestOpenExperimentReportsStoreError: a store that refuses the lookup is an
// error worth reading, not "no executions found".
func TestOpenExperimentReportsStoreError(t *testing.T) {
	ref := &experimentRef{cmd: "plot", dir: t.TempDir(), user: "user", name: ".posblob"}
	_, _, err := ref.openExperiment()
	if !errors.Is(err, fs.ErrInvalid) || strings.Contains(err.Error(), "no executions") {
		t.Errorf("openExperiment = %v, want the store's fs.ErrInvalid", err)
	}
}

// TestRepeatRemovesItsStores: posctl repeat records each execution into a
// store of its own under $TMPDIR and keeps only the report it prints.
func TestRepeatRemovesItsStores(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	out, err := captureStdout(t, func() error {
		return cmdRepeat([]string{"-f", writeSpec(t, pinnedSpec), "-n", "2"})
	})
	if err != nil || !strings.Contains(out, "IDENTICAL") {
		t.Fatalf("posctl repeat: %v\n%s", err, out)
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "posctl-repeat-*")); len(left) != 0 {
		t.Errorf("posctl repeat left %q behind", left)
	}
}
