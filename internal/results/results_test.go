package results

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var when = time.Date(2020, 10, 12, 11, 20, 32, 230471000, time.UTC)

func newExp(t *testing.T) (*Store, *Experiment) {
	t.Helper()
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.CreateExperiment("user", "default", when)
	if err != nil {
		t.Fatal(err)
	}
	return s, e
}

func TestExperimentIDMatchesPaperLayout(t *testing.T) {
	_, e := newExp(t)
	if e.ID() != "2020-10-12_11-20-32_230471" {
		t.Errorf("ID = %s", e.ID())
	}
	if !strings.Contains(e.Dir(), "user/default/2020-10-12_11-20-32_230471") {
		t.Errorf("Dir = %s", e.Dir())
	}
}

func TestRunMetaRoundTrip(t *testing.T) {
	_, e := newExp(t)
	meta := RunMeta{
		Run:        3,
		LoopVars:   map[string]string{"pkt_sz": "64", "pkt_rate": "10000"},
		StartedAt:  when,
		FinishedAt: when.Add(time.Minute),
	}
	if err := e.WriteRunMeta(meta); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadRunMeta(3)
	if err != nil {
		t.Fatal(err)
	}
	if got.LoopVars["pkt_sz"] != "64" || got.Run != 3 || got.Failed {
		t.Errorf("meta = %+v", got)
	}
}

func TestFailedRunMeta(t *testing.T) {
	_, e := newExp(t)
	if err := e.WriteRunMeta(RunMeta{Run: 0, Failed: true, Error: "exit 1"}); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadRunMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Failed || got.Error != "exit 1" {
		t.Errorf("meta = %+v", got)
	}
}

func TestRunArtifacts(t *testing.T) {
	_, e := newExp(t)
	if err := e.AddRunArtifact(1, "loadgen", "moongen.log", []byte("log")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRunArtifact(1, "dut", "setup.out", []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := e.WriteRunMeta(RunMeta{Run: 1}); err != nil {
		t.Fatal(err)
	}
	data, err := e.ReadRunArtifact(1, "loadgen", "moongen.log")
	if err != nil || string(data) != "log" {
		t.Errorf("artifact = %q, %v", data, err)
	}
	list, err := e.RunArtifacts(1)
	if err != nil {
		t.Fatal(err)
	}
	// metadata.json excluded, entries sorted.
	if len(list) != 2 || list[0] != "dut/setup.out" || list[1] != "loadgen/moongen.log" {
		t.Errorf("artifacts = %v", list)
	}
}

func TestArtifactNameValidation(t *testing.T) {
	_, e := newExp(t)
	if err := e.AddRunArtifact(0, "bad/node", "a", nil); err == nil {
		t.Error("accepted slash in node name")
	}
	if err := e.AddRunArtifact(0, "n", "../../escape", nil); err == nil {
		t.Error("accepted path traversal in artifact")
	}
	if err := e.AddExperimentArtifact("../escape", nil); err == nil {
		t.Error("accepted traversal in experiment artifact")
	}
}

func TestExperimentArtifacts(t *testing.T) {
	_, e := newExp(t)
	if err := e.AddExperimentArtifact("experiment/measurement.sh", []byte("echo hi")); err != nil {
		t.Fatal(err)
	}
	data, err := e.ReadExperimentArtifact("experiment/measurement.sh")
	if err != nil || string(data) != "echo hi" {
		t.Errorf("artifact = %q, %v", data, err)
	}
}

func TestRunsEnumeration(t *testing.T) {
	_, e := newExp(t)
	for _, r := range []int{5, 0, 2} {
		if err := e.WriteRunMeta(RunMeta{Run: r}); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := e.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 3 || runs[0] != 0 || runs[1] != 2 || runs[2] != 5 {
		t.Errorf("runs = %v", runs)
	}
}

func TestListAndOpenExperiments(t *testing.T) {
	s, e := newExp(t)
	later, err := s.CreateExperiment("user", "default", when.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	ids, err := s.ListExperiments("user", "default")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != e.ID() || ids[1] != later.ID() {
		t.Errorf("ids = %v", ids)
	}
	reopened, err := s.OpenExperiment("user", "default", e.ID())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Dir() != e.Dir() {
		t.Errorf("reopened dir = %s", reopened.Dir())
	}
	if _, err := s.OpenExperiment("user", "default", "nope"); err == nil {
		t.Error("opened missing experiment")
	}
	if ids, err := s.ListExperiments("ghost", "x"); err != nil || ids != nil {
		t.Errorf("missing user: %v, %v", ids, err)
	}
}

func TestCreateExperimentValidation(t *testing.T) {
	s, _ := newExp(t)
	if _, err := s.CreateExperiment("", "x", when); err == nil {
		t.Error("accepted empty user")
	}
	if _, err := s.CreateExperiment("u", "", when); err == nil {
		t.Error("accepted empty name")
	}
}

// TestPathSegmentsStayInsideRoot: a user, experiment name or id is one path
// element. A traversal, a separator or one of the store's own dot
// directories is refused with fs.ErrInvalid before the store touches the
// disk, so nothing outside the root is listed, created or swept.
func TestPathSegmentsStayInsideRoot(t *testing.T) {
	parent := t.TempDir()
	s, err := NewStore(filepath.Join(parent, "store"))
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(parent, "outside", "exp", "id1")
	if err := os.MkdirAll(outside, 0o755); err != nil {
		t.Fatal(err)
	}
	victim := filepath.Join(outside, tmpPrefix+"victim")
	if err := os.WriteFile(victim, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, seg := range []string{"", ".", "..", "../outside", "a/../../escape", `a\b`, ".posblob", ".posindex"} {
		calls := map[string]error{}
		_, calls["CreateExperiment user"] = s.CreateExperiment(seg, "exp", when)
		_, calls["CreateExperiment name"] = s.CreateExperiment("u", seg, when)
		_, calls["ListExperiments user"] = s.ListExperiments(seg, "exp")
		_, calls["ListExperiments name"] = s.ListExperiments("outside", seg)
		_, calls["OpenExperiment user"] = s.OpenExperiment(seg, "exp", "id1")
		_, calls["OpenExperiment id"] = s.OpenExperiment("u", "exp", seg)
		for call, err := range calls {
			if !errors.Is(err, fs.ErrInvalid) {
				t.Errorf("%s %q: err = %v, want fs.ErrInvalid", call, seg, err)
			}
		}
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("a store call swept a file outside the root: %v", err)
	}
	if _, err := os.Stat(filepath.Join(parent, "escape")); !os.IsNotExist(err) {
		t.Errorf("a store call created a tree outside the root: %v", err)
	}
}

// A file written again before its run commits is replaced, whether it is
// held in memory or in the staging directory: the last write wins, and only
// it reaches the disk.
func TestAtomicOverwrite(t *testing.T) {
	_, e := newExp(t)
	big := strings.Repeat("v", 4096)
	for _, v := range []string{"v1", big + "2", big + "3", "v4", "v5"} {
		if err := e.AddRunArtifact(0, "n", "a.log", []byte(v)); err != nil {
			t.Fatal(err)
		}
		data, err := e.ReadRunArtifact(0, "n", "a.log")
		if err != nil || string(data) != v {
			t.Errorf("artifact = %.10q, %v, want %.10q", data, err, v)
		}
	}
	if err := e.Sync(); err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(filepath.Join(e.Dir(), "run_0000", "n"))
	data, err := os.ReadFile(filepath.Join(e.Dir(), "run_0000", "n", "a.log"))
	if len(entries) != 1 || err != nil || string(data) != "v5" {
		t.Errorf("on disk: %d entries, a.log = %q, %v; want the last write alone", len(entries), data, err)
	}
}

func TestControlDir(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir, err := s.ControlDir("queue")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(dir, s.Root()) || !strings.HasSuffix(dir, ".posqueue") {
		t.Errorf("ControlDir = %q (want <root>/.posqueue)", dir)
	}
	// Idempotent, and invisible to the experiment listing namespace.
	if again, err := s.ControlDir("queue"); err != nil || again != dir {
		t.Errorf("second ControlDir = %q, %v", again, err)
	}
	if _, err := s.ListExperiments(".posqueue", "x"); err == nil {
		t.Log("note: listing under a control dir should stay empty or fail")
	}
	for _, bad := range []string{"", "a/b", `a\b`, ".."} {
		if _, err := s.ControlDir(bad); err == nil {
			t.Errorf("ControlDir(%q) accepted", bad)
		}
	}
}

// TestLoopKey pins the one spelling of a loop combination: run events,
// latency series and the publish checker all key by it.
func TestLoopKey(t *testing.T) {
	for _, tc := range []struct {
		vars map[string]string
		want string
	}{
		{nil, ""},
		{map[string]string{}, ""},
		{map[string]string{"pkt_sz": "64"}, "pkt_sz=64"},
		{map[string]string{"pkt_sz": "64", "pkt_rate": "10000"}, "pkt_rate=10000,pkt_sz=64"},
		{map[string]string{"b": "", "a": "x=y,z"}, "a=x=y,z,b="},
		{map[string]string{"Z": "1", "a": "2", "_": "3"}, "Z=1,_=3,a=2"},
		{map[string]string{"k0": "0", "k1": "1", "k2": "2", "k3": "3", "k4": "4", "k5": "5", "k6": "6", "k7": "7", "k8": "8"},
			"k0=0,k1=1,k2=2,k3=3,k4=4,k5=5,k6=6,k7=7,k8=8"},
	} {
		if got := LoopKey(tc.vars); got != tc.want {
			t.Errorf("LoopKey(%v) = %q, want %q", tc.vars, got, tc.want)
		}
	}
}
