package main

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pos/internal/compare"
	"pos/internal/publish"
	"pos/internal/timeline"
)

// runReplicas performs `posctl run -f` on a two-replica vpos sweep and
// returns the results root and the experiment directory it wrote.
func runReplicas(t *testing.T) (root, dir string) {
	t.Helper()
	root = t.TempDir()
	spec := writeSpec(t, "flavor: vpos\nsizes: [64]\nrates: [10000, 20000]\nreplicas: 2\nseed: 3\n")
	if out, err := captureStdout(t, func() error {
		return cmdRun([]string{"-f", spec, "-results", root})
	}); err != nil {
		t.Fatalf("posctl run: %v\n%s", err, out)
	}
	dirs, err := filepath.Glob(filepath.Join(root, "user", "linux-router-vpos", "*"))
	if err != nil || len(dirs) != 1 {
		t.Fatalf("experiment dirs = %v, %v", dirs, err)
	}
	return root, dirs[0]
}

// copyTree copies the regular files under src into a fresh directory.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dst, rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestAnalyzeLeavesExperimentUnchanged: analyze is a reader. After
// `posctl analyze` — text, -json and -chrome alike — a campaign's result
// tree is byte-identical to its state before, and a release of it bundles
// the same files. The attempts analyze reports come off the journal.
func TestAnalyzeLeavesExperimentUnchanged(t *testing.T) {
	root, dir := runReplicas(t)
	ref := &experimentRef{cmd: "publish", dir: root, user: "user", name: "linux-router-vpos"}
	released := func() []string {
		t.Helper()
		_, exp, err := ref.openExperiment()
		if err != nil {
			t.Fatal(err)
		}
		m, err := publish.BuildManifest(exp, ref.user, ref.name)
		if err != nil {
			t.Fatal(err)
		}
		return m.Files
	}
	before, files := copyTree(t, dir), released()

	chrome := filepath.Join(t.TempDir(), "trace.json")
	var out string
	for _, args := range [][]string{{dir}, {dir, "-json", "-chrome", chrome}} {
		var err error
		if out, err = captureStdout(t, func() error { return cmdAnalyze(args) }); err != nil {
			t.Fatalf("posctl analyze %v: %v\n%s", args, err, out)
		}
	}
	// The attempts come off the journal: one per run, none retried.
	var got struct{ Timeline timeline.Timeline }
	if err := json.Unmarshal([]byte(out), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Timeline.Runs) != 2 {
		t.Fatalf("runs = %+v, want 2", got.Timeline.Runs)
	}
	for _, r := range got.Timeline.Runs {
		if r.Attempts != 1 {
			t.Errorf("run %d attempts = %d, want 1", r.Run, r.Attempts)
		}
	}
	if _, err := os.Stat(chrome); err != nil {
		t.Errorf("-chrome wrote no trace: %v", err)
	}
	if err := cmdAnalyze([]string{dir, "-chrome", filepath.Join(dir, "trace.json")}); err == nil {
		t.Error("-chrome into the experiment accepted")
	}

	diffs, err := compare.DiffExperiments(before, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Errorf("analyze changed the experiment: %q", diffs)
	}
	if after := released(); !reflect.DeepEqual(after, files) {
		t.Errorf("release after analyze bundles %d files, before %d", len(after), len(files))
	}
}

// TestWatchDirFilters: watch -dir replays the journal through the same
// filters as the live stream, and -last belongs to the live stream only.
func TestWatchDirFilters(t *testing.T) {
	_, dir := runReplicas(t)
	out, err := captureStdout(t, func() error {
		return cmdWatch([]string{"-dir", dir, "-replica", "replica1", "-phase", "setup"})
	})
	if err != nil {
		t.Fatalf("posctl watch -dir: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n\nreplica")[0]
	if !strings.Contains(lines, "booting hosts") {
		t.Errorf("filtered replay lacks replica1's boot:\n%s", out)
	}
	for _, line := range strings.Split(lines, "\n") {
		if !strings.Contains(line, "replica1") || !strings.Contains(line, "setup") {
			t.Errorf("filter let through %q", line)
		}
	}
	if err := cmdWatch([]string{"-dir", dir, "-last", "5"}); err == nil {
		t.Error("watch -dir -last accepted")
	}
}
