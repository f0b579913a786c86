package results_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pos/internal/core"
	"pos/internal/hosttools"
	"pos/internal/results"
)

var errCommit = errors.New("injected commit fault")

// writeRuns records runs 0…3 of one small file each, failing the k-th file
// system call of run 2's WriteRunMeta when k > 0, and returns each
// WriteRunMeta's error and the number of calls run 2's made.
func writeRuns(t *testing.T, s *results.Store, k int) (errs []error, calls int) {
	t.Helper()
	e, err := s.CreateExperiment("user", "commit", time.Date(2020, 10, 12, 11, 20, 32, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 4; run++ {
		if err := e.AddRunArtifact(run, "lg", "a.out", []byte("out")); err != nil {
			t.Fatal(err)
		}
		if run == 2 {
			results.SetFSHook(t, func(op, _ string) error {
				if calls++; calls == k {
					return errCommit
				}
				return nil
			})
		}
		errs = append(errs, e.WriteRunMeta(results.RunMeta{Run: run}))
		results.SetFSHook(t, nil)
	}
	if err := e.Sync(); err != nil {
		t.Fatalf("k=%d: Sync = %v, want nil: the failed commit was its run's to report", k, err)
	}
	return errs, calls
}

// A run commits in its WriteRunMeta: when any file system call of the commit
// fails, that call returns the error, the run is absent from disk and from
// the manifest, and the runs around it are untouched. Through core.Runner,
// the run is recorded as failed.
func TestCommitFaultFailsItsRun(t *testing.T) {
	_, calls := writeRuns(t, newStore(t), 0)
	if calls == 0 {
		t.Fatal("run 2's WriteRunMeta made no file system call: nothing committed it")
	}
	for k := 1; k <= calls; k++ {
		s := newStore(t)
		errs, _ := writeRuns(t, s, k)
		for run, err := range errs {
			if (run == 2) != errors.Is(err, errCommit) {
				t.Errorf("k=%d: WriteRunMeta(%d) = %v", k, run, err)
			}
		}
		ids, _ := s.ListExperiments("user", "commit")
		e, err := s.OpenExperiment("user", "commit", ids[0])
		if err != nil {
			t.Fatal(err)
		}
		if runs, err := e.Runs(); err != nil || len(runs) != 3 || runs[2] != 3 {
			t.Errorf("k=%d: runs = %v, %v, want [0 1 3]", k, runs, err)
		}
		entries, _ := os.ReadDir(e.Dir())
		for _, ent := range entries {
			if ent.Name() != "run_0000" && ent.Name() != "run_0001" && ent.Name() != "run_0003" {
				t.Errorf("k=%d: %s left in the experiment directory", k, ent.Name())
			}
		}
	}

	t.Run("runner", func(t *testing.T) {
		s := newStore(t)
		results.SetFSHook(t, func(op, path string) error {
			if op == "rename" && filepath.Base(path) == "run_0001" {
				return errCommit
			}
			return nil
		})
		hosts := map[string]core.Host{"lg": okHost("lg"), "dut": okHost("dut")}
		r := &core.Runner{Hosts: hosts, Service: hosttools.NewService(nil), ContinueOnRunFailure: true}
		exp := &core.Experiment{
			Name: "commit", User: "user", Duration: time.Hour,
			LoopVars: []core.LoopVar{{Name: "pkt_rate", Values: []string{"1", "2", "3"}}},
			Hosts: []core.HostSpec{
				{Role: "loadgen", Node: "lg", Image: "debian-buster", Setup: "setup", Measurement: "measure"},
				{Role: "dut", Node: "dut", Image: "debian-buster", Setup: "setup", Measurement: "measure"},
			},
		}
		sum, err := r.Run(context.Background(), exp, s)
		if err != nil {
			t.Fatal(err)
		}
		if sum.FailedRuns != 1 || len(sum.Records) != 3 {
			t.Fatalf("failed runs = %d of %d, want 1 of 3", sum.FailedRuns, len(sum.Records))
		}
		for _, rec := range sum.Records {
			if rec.Failed != (rec.Run == 1) {
				t.Errorf("run %d: failed = %v, %q", rec.Run, rec.Failed, rec.Error)
			}
		}
	})
}

func newStore(t *testing.T) *results.Store {
	t.Helper()
	s, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// okHost is a core.Host whose every step succeeds.
type okHost string

func (h okHost) Name() string                            { return string(h) }
func (h okHost) SetBoot(string, map[string]string) error { return nil }
func (h okHost) Reboot() error                           { return nil }
func (h okHost) DeployTools() error                      { return nil }
func (h okHost) Exec(context.Context, string, map[string]string) (string, error) {
	return "ok", nil
}
