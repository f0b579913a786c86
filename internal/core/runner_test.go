package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pos/internal/calendar"
	"pos/internal/eventlog"
	"pos/internal/hosttools"
	"pos/internal/results"
	"pos/internal/telemetry"
)

// fakeHost is an in-memory core.Host that records the control sequence.
type fakeHost struct {
	name string

	mu        sync.Mutex
	bootImage string
	bootParam map[string]string
	reboots   int
	deploys   int
	execs     []map[string]string // env of each Exec, in order
	scripts   []string
	failBoot  bool
	failExec  string // substring of script that triggers failure
	onExec    func(script string, env map[string]string)
	// onExecCtx, when set, runs with the exec context and may block.
	onExecCtx func(ctx context.Context, script string) error
}

func (f *fakeHost) Name() string { return f.name }

func (f *fakeHost) SetBoot(img string, params map[string]string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.bootImage = img
	f.bootParam = params
	return nil
}

func (f *fakeHost) Reboot() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failBoot {
		return errors.New("boot failed")
	}
	f.reboots++
	return nil
}

func (f *fakeHost) DeployTools() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.deploys++
	return nil
}

func (f *fakeHost) Exec(ctx context.Context, script string, env map[string]string) (string, error) {
	f.mu.Lock()
	cp := make(map[string]string, len(env))
	for k, v := range env {
		cp[k] = v
	}
	f.execs = append(f.execs, cp)
	f.scripts = append(f.scripts, script)
	hook := f.onExec
	ctxHook := f.onExecCtx
	fail := f.failExec != "" && strings.Contains(script, f.failExec)
	f.mu.Unlock()
	if hook != nil {
		hook(script, env)
	}
	if ctxHook != nil {
		if err := ctxHook(ctx, script); err != nil {
			return "timed out", err
		}
	}
	if fail {
		return "partial", errors.New("script failed")
	}
	return "output of " + strings.TrimSpace(script), nil
}

func caseStudyExperiment() *Experiment {
	return &Experiment{
		Name: "linux-router",
		User: "user",
		GlobalVars: Vars{
			"dut_mac": "02:00:00:00:00:02",
		},
		LoopVars: []LoopVar{
			{Name: "pkt_sz", Values: []string{"64", "1500"}},
			{Name: "pkt_rate", Values: []string{"10000", "20000", "30000"}},
		},
		Hosts: []HostSpec{
			{
				Role: "loadgen", Node: "vriga", Image: "debian-buster",
				LocalVars:   Vars{"port": "eno1"},
				Setup:       "setup loadgen",
				Measurement: "measure loadgen",
			},
			{
				Role: "dut", Node: "vtartu", Image: "debian-buster",
				LocalVars:   Vars{"port": "eno2"},
				Setup:       "setup dut",
				Measurement: "measure dut",
			},
		},
		Duration: time.Hour,
	}
}

func newRunner(hosts ...*fakeHost) (*Runner, *results.Store) {
	m := make(map[string]Host, len(hosts))
	var names []string
	for _, h := range hosts {
		m[h.name] = h
		names = append(names, h.name)
	}
	return &Runner{
		Hosts:    m,
		Service:  hosttools.NewService(nil),
		Calendar: calendar.New(names),
	}, nil
}

func storeAt(t *testing.T) *results.Store {
	t.Helper()
	s, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFullWorkflow(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)

	r.Events = eventlog.NewPipeline()

	sum, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 6 || sum.FailedRuns != 0 || len(sum.Records) != 6 {
		t.Errorf("summary = %+v", sum)
	}
	// One boot + tool deployment per host.
	if lg.reboots != 1 || lg.deploys != 1 || dut.reboots != 1 {
		t.Errorf("boots lg=%d/%d dut=%d", lg.reboots, lg.deploys, dut.reboots)
	}
	// Each host ran 1 setup + 6 measurements.
	if len(lg.execs) != 7 || len(dut.execs) != 7 {
		t.Fatalf("execs lg=%d dut=%d, want 7", len(lg.execs), len(dut.execs))
	}
	// Boot config recorded.
	if lg.bootImage != "debian-buster" {
		t.Errorf("boot image = %s", lg.bootImage)
	}
	// Measurement env carries merged vars with loop overrides.
	env := lg.execs[1]
	if env["pkt_sz"] != "64" || env["pkt_rate"] != "10000" {
		t.Errorf("first run env = %v", env)
	}
	if env["dut_mac"] != "02:00:00:00:00:02" || env["port"] != "eno1" || env["ROLE"] != "loadgen" || env["RUN"] != "0" {
		t.Errorf("env = %v", env)
	}
	// DuT gets its own local vars.
	if dut.execs[1]["port"] != "eno2" {
		t.Errorf("dut env = %v", dut.execs[1])
	}
	// The journal under events/ records the boot, every host's setup step
	// in host order, and every measurement run with its counters.
	events, err := eventlog.Replay(filepath.Join(sum.ResultsDir, eventlog.JournalDir))
	if err != nil {
		t.Fatal(err)
	}
	var steps []string
	var measured int
	for _, ev := range events {
		if ev.Typ != eventlog.TypeProgress {
			continue
		}
		if ev.Phase == PhaseSetup {
			steps = append(steps, ev.Node+":"+ev.Message)
		}
		if ev.Phase == PhaseMeasurement {
			measured++
			if ev.TotalRuns != 6 || ev.Run != measured-1 {
				t.Errorf("event = %+v", ev)
			}
		}
	}
	if want := ":booting hosts vriga:running setup script vtartu:running setup script"; strings.Join(steps, " ") != want {
		t.Errorf("setup steps = %q, want %q", steps, want)
	}
	if measured != 6 {
		t.Errorf("measurement events = %d", measured)
	}
}

// TestRunWithoutPipelineJournalsNothing: a runner with no Events pipeline
// publishes nothing, so its experiment has no events/ journal.
func TestRunWithoutPipelineJournalsNothing(t *testing.T) {
	r, _ := newRunner(&fakeHost{name: "vriga"}, &fakeHost{name: "vtartu"})
	sum, err := r.Run(context.Background(), caseStudyExperiment(), storeAt(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(sum.ResultsDir, eventlog.JournalDir)); !os.IsNotExist(err) {
		t.Errorf("events/ journal without a pipeline: %v", err)
	}
}

func TestWorkflowArtifacts(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	sum, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := store.OpenExperiment("user", "linux-router", idFromDir(t, sum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	// The experiment definition is archived.
	for _, a := range []string{
		"experiment/global-vars.json",
		"experiment/loop-variables.json",
		"experiment/loadgen/setup.sh",
		"experiment/loadgen/measurement.sh",
		"experiment/dut/local-vars.json",
		"experiment/topology.json",
		"setup/vriga.out",
		"setup/vtartu.out",
	} {
		if _, err := exp.ReadExperimentArtifact(a); err != nil {
			t.Errorf("missing artifact %s: %v", a, err)
		}
	}
	// Loop vars round trip.
	data, _ := exp.ReadExperimentArtifact("experiment/loop-variables.json")
	vars, err := UnmarshalLoopVars(data)
	if err != nil || len(vars) != 2 {
		t.Errorf("loop vars artifact: %v, %v", vars, err)
	}
	// Per-run metadata and outputs.
	runs, err := exp.Runs()
	if err != nil || len(runs) != 6 {
		t.Fatalf("runs = %v, %v", runs, err)
	}
	meta, err := exp.ReadRunMeta(0)
	if err != nil {
		t.Fatal(err)
	}
	if meta.LoopVars["pkt_sz"] != "64" || meta.LoopVars["pkt_rate"] != "10000" {
		t.Errorf("run 0 meta = %+v", meta)
	}
	out, err := exp.ReadRunArtifact(3, "vriga", "measurement.out")
	if err != nil || !strings.Contains(string(out), "measure loadgen") {
		t.Errorf("run 3 output = %q, %v", out, err)
	}
}

func idFromDir(t *testing.T, dir string) string {
	t.Helper()
	i := strings.LastIndex(dir, "/")
	return dir[i+1:]
}

func TestUploadsRoutedToCurrentRun(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	// During each measurement Exec, upload an artifact through the
	// service the way pos tools do.
	lg.onExec = func(script string, env map[string]string) {
		if strings.Contains(script, "measure") {
			r.Service.Upload("vriga", "moongen.log", []byte("run "+env["RUN"]))
		}
	}
	sum, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := store.OpenExperiment("user", "linux-router", idFromDir(t, sum.ResultsDir))
	for run := 0; run < 6; run++ {
		data, err := exp.ReadRunArtifact(run, "vriga", "moongen.log")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if string(data) != fmt.Sprintf("run %d", run) {
			t.Errorf("run %d upload = %q", run, data)
		}
	}
}

func TestAllocationConflictBlocksExperiment(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	// Another user holds vtartu.
	now := time.Now()
	if _, err := r.Calendar.Allocate("other", []string{"vtartu"}, now.Add(-time.Minute), now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	_, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err == nil {
		t.Fatal("experiment ran on allocated nodes")
	}
	if lg.reboots != 0 && dut.reboots != 0 {
		t.Error("nodes touched despite allocation failure")
	}
}

func TestAllocationReleasedAfterRun(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	if _, err := r.Run(context.Background(), caseStudyExperiment(), store); err != nil {
		t.Fatal(err)
	}
	// Immediately rerunnable: the reservation was released.
	if _, err := r.Run(context.Background(), caseStudyExperiment(), store); err != nil {
		t.Fatalf("second run blocked: %v", err)
	}
}

func TestBootFailureAbortsBeforeMeasurement(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu", failBoot: true}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	_, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err == nil {
		t.Fatal("boot failure not reported")
	}
	if len(lg.execs) != 0 {
		t.Error("scripts ran despite boot failure")
	}
}

func TestSetupFailureAborts(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu", failExec: "setup"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	_, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err == nil || !strings.Contains(err.Error(), "setup") {
		t.Fatalf("err = %v", err)
	}
	// No measurement ran anywhere.
	for _, h := range []*fakeHost{lg, dut} {
		for _, s := range h.scripts {
			if strings.Contains(s, "measure") {
				t.Error("measurement ran after setup failure")
			}
		}
	}
}

func TestMeasurementFailureStopsByDefault(t *testing.T) {
	lg := &fakeHost{name: "vriga", failExec: "measure"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	sum, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err == nil {
		t.Fatal("failed run not reported")
	}
	if sum == nil || sum.FailedRuns != 1 || len(sum.Records) != 1 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestMeasurementFailureContinueOption(t *testing.T) {
	lg := &fakeHost{name: "vriga", failExec: "measure"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	r.ContinueOnRunFailure = true
	store := storeAt(t)
	sum, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err != nil {
		t.Fatalf("continue-on-failure returned error: %v", err)
	}
	if sum.FailedRuns != 6 || len(sum.Records) != 6 {
		t.Errorf("summary = %+v", sum)
	}
	// Failure recorded in run metadata.
	exp, _ := store.OpenExperiment("user", "linux-router", idFromDir(t, sum.ResultsDir))
	meta, err := exp.ReadRunMeta(2)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Failed || meta.Error == "" {
		t.Errorf("meta = %+v", meta)
	}
}

func TestRebootBetweenRuns(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	r.RebootBetweenRuns = true
	store := storeAt(t)
	e := caseStudyExperiment()
	e.LoopVars = []LoopVar{{Name: "pkt_sz", Values: []string{"64", "1500"}}}
	if _, err := r.Run(context.Background(), e, store); err != nil {
		t.Fatal(err)
	}
	// 1 initial boot + 1 per run.
	if lg.reboots != 3 {
		t.Errorf("reboots = %d, want 3", lg.reboots)
	}
	// Setup re-ran before each run: 1 + 2 setups + 2 measurements = 5.
	if len(lg.execs) != 5 {
		t.Errorf("execs = %d, want 5", len(lg.execs))
	}
}

func TestValidationErrors(t *testing.T) {
	r, _ := newRunner(&fakeHost{name: "a"})
	store := storeAt(t)
	cases := []*Experiment{
		{User: "u", Hosts: []HostSpec{{Role: "r", Node: "a", Image: "i", Measurement: "m"}}}, // no name
		{Name: "n", Hosts: []HostSpec{{Role: "r", Node: "a", Image: "i", Measurement: "m"}}}, // no user
		{Name: "n", User: "u"}, // no hosts
		{Name: "n", User: "u", Hosts: []HostSpec{{Node: "a", Image: "i", Measurement: "m"}}},                                                                   // no role
		{Name: "n", User: "u", Hosts: []HostSpec{{Role: "r", Image: "i", Measurement: "m"}}},                                                                   // no node
		{Name: "n", User: "u", Hosts: []HostSpec{{Role: "r", Node: "a", Measurement: "m"}}},                                                                    // no image
		{Name: "n", User: "u", Hosts: []HostSpec{{Role: "r", Node: "a", Image: "i"}}},                                                                          // no measurement
		{Name: "n", User: "u", Hosts: []HostSpec{{Role: "r", Node: "a", Image: "i", Measurement: "m"}, {Role: "r", Node: "b", Image: "i", Measurement: "m"}}},  // dup role
		{Name: "n", User: "u", Hosts: []HostSpec{{Role: "r", Node: "a", Image: "i", Measurement: "m"}, {Role: "r2", Node: "a", Image: "i", Measurement: "m"}}}, // dup node
	}
	for i, e := range cases {
		if _, err := r.Run(context.Background(), e, store); err == nil {
			t.Errorf("case %d: invalid experiment accepted", i)
		}
	}
}

func TestUnknownNodeRejected(t *testing.T) {
	r, _ := newRunner(&fakeHost{name: "a"})
	store := storeAt(t)
	e := &Experiment{
		Name: "n", User: "u",
		Hosts: []HostSpec{{Role: "r", Node: "ghost", Image: "i", Measurement: "m"}},
	}
	if _, err := r.Run(context.Background(), e, store); err == nil {
		t.Error("unknown node accepted")
	}
}

func TestContextCancellationStopsSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	lg := &fakeHost{name: "vriga"}
	lg.onExec = func(script string, _ map[string]string) {
		if strings.Contains(script, "measure") {
			cancel()
		}
	}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	sum, err := r.Run(ctx, caseStudyExperiment(), store)
	if err == nil {
		t.Fatal("cancelled sweep completed")
	}
	if sum != nil && len(sum.Records) == 6 {
		t.Error("sweep ran to completion despite cancellation")
	}
}

func TestRunWithoutServiceFails(t *testing.T) {
	r := &Runner{Hosts: map[string]Host{"a": &fakeHost{name: "a"}}}
	store := storeAt(t)
	e := &Experiment{Name: "n", User: "u", Hosts: []HostSpec{{Role: "r", Node: "a", Image: "i", Measurement: "m"}}}
	if _, err := r.Run(context.Background(), e, store); err == nil {
		t.Error("runner without service accepted")
	}
}

func TestLoopVarsVisibleThroughService(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	var seen []string
	lg.onExec = func(script string, env map[string]string) {
		if strings.Contains(script, "measure") {
			// The loop scope is per-run state now: it resolves through
			// the node's run binding, the way the host tools read it.
			if v, ok := r.Service.LookupVar("vriga", hosttools.ScopeLoop, "pkt_rate"); ok {
				seen = append(seen, v)
			}
		}
	}
	if _, err := r.Run(context.Background(), caseStudyExperiment(), store); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("loop scope visible in %d runs, want 6", len(seen))
	}
	if seen[0] != "10000" || seen[1] != "20000" {
		t.Errorf("loop values = %v", seen)
	}
}

// TestStragglerUploadRefusedAfterRun is the regression test for the upload
// race: a host whose measurement script is abandoned by the run timeout may
// still try to upload afterwards. Uploads route through the per-run scope, so
// once the run is over the straggler is refused — it can never land in the
// wrong run's directory (the old service-global uploader captured the
// current run index and did exactly that).
func TestStragglerUploadRefusedAfterRun(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	r.RunTimeout = 30 * time.Millisecond
	store := storeAt(t)
	e := caseStudyExperiment()
	e.LoopVars = []LoopVar{{Name: "x", Values: []string{"1", "2"}}}

	// vriga's first measurement wedges until the run timeout abandons it.
	var calls int
	var mu sync.Mutex
	lg.onExecCtx = func(ctx context.Context, script string) error {
		if !strings.Contains(script, "measure") {
			return nil
		}
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}

	sess, err := r.Prepare(context.Background(), e, store)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	combos, _ := CrossProduct(e.LoopVars)

	rec, _ := sess.RunOne(context.Background(), 0, 2, 1, combos[0])
	if !rec.Failed {
		t.Fatal("timed-out run not recorded as failed")
	}
	// The straggling upload fires after the run was closed out.
	if err := r.Service.Upload("vriga", "moongen.log", []byte("stale")); err == nil {
		t.Fatal("straggler upload accepted after run end")
	}
	if rec, err := sess.RunOne(context.Background(), 1, 2, 1, combos[1]); err != nil || rec.Failed {
		t.Fatalf("run 1 = %+v, %v", rec, err)
	}
	exp := sess.Results()
	for run := 0; run < 2; run++ {
		if _, err := exp.ReadRunArtifact(run, "vriga", "moongen.log"); err == nil {
			t.Errorf("stale upload landed in run %d", run)
		}
	}
}

func TestRunTimeoutBoundsHungMeasurement(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	hang := make(chan struct{})
	lg.onExecCtx = func(ctx context.Context, script string) error {
		if strings.Contains(script, "measure") {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-hang:
			}
		}
		return nil
	}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	r.RunTimeout = 30 * time.Millisecond
	r.ContinueOnRunFailure = true
	store := storeAt(t)
	e := caseStudyExperiment()
	e.LoopVars = []LoopVar{{Name: "x", Values: []string{"1"}}}
	start := time.Now()
	sum, err := r.Run(context.Background(), e, store)
	close(hang)
	if err != nil {
		t.Fatalf("continue-on-failure returned %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hung run was not bounded")
	}
	if sum.FailedRuns != 1 {
		t.Errorf("failed runs = %d, want 1 (timeout)", sum.FailedRuns)
	}
}

// TestRunOneRecordsMetadataDespiteRecordingFailure: when recording one
// node's artifact fails mid-run, RunOne must not bail out early — the other
// node's output is still recorded and the run still gets its metadata.json,
// marked failed. A run directory without metadata would be invisible to
// evaluation.
func TestRunOneRecordsMetadataDespiteRecordingFailure(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	e := caseStudyExperiment()
	sess, err := r.Prepare(context.Background(), e, storeAt(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// A regular file where run 0's vriga directory must go makes every
	// artifact write for that node fail (mkdir over a file).
	blocker := filepath.Join(sess.Results().Dir(), "run_0000", "vriga")
	if err := os.MkdirAll(filepath.Dir(blocker), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}

	combos, err := CrossProduct(e.LoopVars)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.RunOne(context.Background(), 0, len(combos), 1, combos[0])
	if err == nil || !rec.Failed {
		t.Fatalf("recording failure not surfaced: rec = %+v, err = %v", rec, err)
	}
	// The other node's measurement output was still recorded.
	if _, err := sess.Results().ReadRunArtifact(0, "vtartu", "measurement.out"); err != nil {
		t.Errorf("vtartu output dropped after vriga's recording failure: %v", err)
	}
	// And the run has metadata, marked failed with the recording error.
	meta, err := sess.Results().ReadRunMeta(0)
	if err != nil {
		t.Fatalf("metadata.json missing after recording failure: %v", err)
	}
	if !meta.Failed || meta.Error == "" {
		t.Errorf("meta = %+v", meta)
	}
}

// TestRunOneFailsWhenMetadataUnwritable: a run whose metadata cannot be
// written is a failed run even if the measurement itself succeeded — the
// results on disk are the experiment.
func TestRunOneFailsWhenMetadataUnwritable(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	e := caseStudyExperiment()
	sess, err := r.Prepare(context.Background(), e, storeAt(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// A non-empty directory squatting on metadata.json's path defeats the
	// atomic rename that writes it.
	if err := os.MkdirAll(filepath.Join(sess.Results().Dir(), "run_0000", "metadata.json", "squat"), 0o755); err != nil {
		t.Fatal(err)
	}
	combos, err := CrossProduct(e.LoopVars)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := sess.RunOne(context.Background(), 0, len(combos), 1, combos[0])
	if err == nil || !rec.Failed || rec.Error == "" {
		t.Fatalf("unwritable metadata not surfaced: rec = %+v, err = %v", rec, err)
	}
}

// TestSessionRecoverCleanSlate: Recover reboots every host, re-deploys the
// tools, and re-runs the setup scripts — the exact state a fresh experiment
// would see, which is what a retry must execute on.
func TestSessionRecoverCleanSlate(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	sess, err := r.Prepare(context.Background(), caseStudyExperiment(), storeAt(t))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if err := sess.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, h := range []*fakeHost{lg, dut} {
		h.mu.Lock()
		reboots, deploys := h.reboots, h.deploys
		setups := 0
		for _, s := range h.scripts {
			if strings.Contains(s, "setup") {
				setups++
			}
		}
		h.mu.Unlock()
		if reboots != 2 || deploys != 2 || setups != 2 {
			t.Errorf("%s: reboots=%d deploys=%d setups=%d, want 2 each", h.name, reboots, deploys, setups)
		}
	}

	// A failing setup script fails the recovery.
	lg.mu.Lock()
	lg.failExec = "setup"
	lg.mu.Unlock()
	if err := sess.Recover(context.Background()); err == nil {
		t.Error("failing setup script did not fail Recover")
	}
}

func TestRunArchivesSpans(t *testing.T) {
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	sum, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := store.OpenExperiment("user", "linux-router", idFromDir(t, sum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	data, err := exp.ReadExperimentArtifact("spans.json")
	if err != nil {
		t.Fatalf("spans.json not archived: %v", err)
	}
	recs, err := telemetry.ParseSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]int{}
	for _, rec := range recs {
		if rec.End.Before(rec.Start) {
			t.Errorf("span %q ends before it starts", rec.Name)
		}
		byName[rec.Name]++
	}
	if byName["experiment:linux-router"] != 1 || byName["boot"] != 1 || byName["setup"] != 1 {
		t.Errorf("phase spans = %v", byName)
	}
	if byName["boot:vriga"] != 1 || byName["setup:vtartu"] != 1 {
		t.Errorf("per-host phase spans = %v", byName)
	}
	if byName["exec:vriga"] != 6 || byName["exec:vtartu"] != 6 {
		t.Errorf("exec spans = %v", byName)
	}
	runSpans := 0
	for name, n := range byName {
		if strings.HasPrefix(name, "run ") {
			runSpans += n
		}
	}
	if runSpans != 6 {
		t.Errorf("run spans = %d, want 6", runSpans)
	}
	// The archived spans must round-trip through the Chrome converter.
	chrome, err := telemetry.ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	var events []telemetry.ChromeEvent
	if err := json.Unmarshal(chrome, &events); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(events) != len(recs) {
		t.Errorf("chrome events = %d, want %d", len(events), len(recs))
	}
}

func TestRunSkipsSpansWhenTelemetryDisabled(t *testing.T) {
	telemetry.Default.SetEnabled(false)
	defer telemetry.Default.SetEnabled(true)
	lg := &fakeHost{name: "vriga"}
	dut := &fakeHost{name: "vtartu"}
	r, _ := newRunner(lg, dut)
	store := storeAt(t)
	sum, err := r.Run(context.Background(), caseStudyExperiment(), store)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := store.OpenExperiment("user", "linux-router", idFromDir(t, sum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.ReadExperimentArtifact("spans.json"); err == nil {
		t.Error("disabled telemetry still archived spans.json")
	}
}
