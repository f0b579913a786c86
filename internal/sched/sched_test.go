package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"path/filepath"

	"pos/internal/core"
	"pos/internal/eventlog"
	"pos/internal/hosttools"
	"pos/internal/results"
	"pos/internal/sim"
	"pos/internal/telemetry"
	"pos/internal/timeline"
)

// fakeHost is an in-memory core.Host; measurement behaviour is scripted per
// test through the hooks.
type fakeHost struct {
	name string
	svc  *hosttools.Service

	mu      sync.Mutex
	execs   []map[string]string
	reboots int
	// onMeasure runs during each measurement Exec (outside the lock).
	onMeasure func(ctx context.Context, env map[string]string) error
}

func (f *fakeHost) Name() string                                  { return f.name }
func (f *fakeHost) SetBoot(img string, p map[string]string) error { return nil }
func (f *fakeHost) DeployTools() error                            { return nil }

func (f *fakeHost) Reboot() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reboots++
	return nil
}

func (f *fakeHost) Exec(ctx context.Context, script string, env map[string]string) (string, error) {
	cp := make(map[string]string, len(env))
	for k, v := range env {
		cp[k] = v
	}
	f.mu.Lock()
	f.execs = append(f.execs, cp)
	hook := f.onMeasure
	f.mu.Unlock()
	if strings.Contains(script, "measure") && hook != nil {
		if err := hook(ctx, cp); err != nil {
			return "interrupted", err
		}
	}
	return "output of " + script, nil
}

// sweepFor is the campaign's experiment definition bound to one node.
func sweepFor(node string) *core.Experiment {
	return &core.Experiment{
		Name:       "sweep",
		User:       "user",
		GlobalVars: core.Vars{"dut_mac": "02:00:00:00:00:02"},
		LoopVars: []core.LoopVar{
			{Name: "pkt_sz", Values: []string{"64", "1500"}},
			{Name: "pkt_rate", Values: []string{"10000", "20000", "30000"}},
		},
		Hosts: []core.HostSpec{{
			Role: "loadgen", Node: node, Image: "debian-buster",
			Setup: "setup", Measurement: "measure",
		}},
		Duration: time.Hour,
	}
}

// newReplica builds one replica testbed: a single fake host on the shared
// service. Sharing one Service across replicas is the hard case — per-run
// state must stay scoped even though every scope lives on the same endpoint.
func newReplica(name, node string, svc *hosttools.Service) (Replica, *fakeHost) {
	h := &fakeHost{name: node, svc: svc}
	return Replica{
		Name:       name,
		Runner:     &core.Runner{Hosts: map[string]core.Host{node: h}, Service: svc},
		Experiment: sweepFor(node),
	}, h
}

func storeAt(t *testing.T) *results.Store {
	t.Helper()
	s, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCampaignShardsRunsAcrossReplicas(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)

	// Gate: the first measurement on each replica waits for the other, so
	// the test proves two runs genuinely in flight at once (the -race run
	// then exercises the concurrent scope paths). An atomic high-water
	// mark double-checks it.
	var gate sync.WaitGroup
	gate.Add(2)
	var inFlight, maxInFlight atomic.Int32
	var onceA, onceB sync.Once
	measure := func(once *sync.Once) func(ctx context.Context, env map[string]string) error {
		return func(ctx context.Context, env map[string]string) error {
			n := inFlight.Add(1)
			for {
				m := maxInFlight.Load()
				if n <= m || maxInFlight.CompareAndSwap(m, n) {
					break
				}
			}
			defer inFlight.Add(-1)
			once.Do(func() { gate.Done(); gate.Wait() })
			// Upload through the shared service mid-run: must land in
			// exactly this run's directory.
			return svc.Upload(env["NODE"], "moongen.log", []byte("run "+env["RUN"]))
		}
	}
	hostA.onMeasure = measure(&onceA)
	hostB.onMeasure = measure(&onceB)

	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{repA, repB}}
	sum, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 6 || sum.FailedRuns != 0 || len(sum.Records) != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	if got := maxInFlight.Load(); got < 2 {
		t.Errorf("max concurrent runs = %d, want >= 2", got)
	}
	// Deterministic run numbering: records in cross-product order no
	// matter which replica executed which run.
	for i, rec := range sum.Records {
		if rec.Run != i {
			t.Errorf("record %d has run %d", i, rec.Run)
		}
	}
	if sum.Records[0].Combo["pkt_sz"] != "64" || sum.Records[0].Combo["pkt_rate"] != "10000" {
		t.Errorf("run 0 combo = %v", sum.Records[0].Combo)
	}
	// Both replicas pulled work from the queue.
	if len(hostA.execs) < 2 || len(hostB.execs) < 2 {
		t.Errorf("execs alpha=%d beta=%d — work not shared", len(hostA.execs), len(hostB.execs))
	}

	exp, err := store.OpenExperiment("user", "sweep", idFromDir(t, sum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	// Per-run uploads routed to the right run directory despite the
	// shared service: each run holds exactly its own RUN number, uploaded
	// by whichever node executed it.
	for run := 0; run < 6; run++ {
		var data []byte
		var err error
		for _, node := range []string{"nodeA", "nodeB"} {
			if data, err = exp.ReadRunArtifact(run, node, "moongen.log"); err == nil {
				break
			}
		}
		if err != nil {
			t.Fatalf("run %d upload missing: %v", run, err)
		}
		if string(data) != fmt.Sprintf("run %d", run) {
			t.Errorf("run %d upload = %q", run, data)
		}
		if _, err := exp.ReadRunMeta(run); err != nil {
			t.Errorf("run %d metadata: %v", run, err)
		}
	}
	// Definition archived once; setup outputs namespaced per replica; the
	// campaign manifest records the sharding.
	for _, a := range []string{
		"experiment/loop-variables.json",
		"setup/alpha/nodeA.out",
		"setup/beta/nodeB.out",
		"experiment/campaign.json",
	} {
		if _, err := exp.ReadExperimentArtifact(a); err != nil {
			t.Errorf("missing artifact %s: %v", a, err)
		}
	}
}

func idFromDir(t *testing.T, dir string) string {
	t.Helper()
	i := strings.LastIndex(dir, "/")
	return dir[i+1:]
}

// TestCampaignMetadataMatchesSequential pins the clock and compares every
// run's metadata.json byte for byte between the sequential runner and a
// 2-replica campaign: sharding must not be observable in the results.
func TestCampaignMetadataMatchesSequential(t *testing.T) {
	clock := func() time.Time { return time.Date(2021, 12, 7, 10, 0, 0, 0, time.UTC) }

	// Sequential reference.
	seqHost := &fakeHost{name: "nodeA"}
	seqRunner := &core.Runner{
		Hosts:   map[string]core.Host{"nodeA": seqHost},
		Service: hosttools.NewService(nil),
		Clock:   clock,
	}
	seqStore := storeAt(t)
	seqSum, err := seqRunner.Run(context.Background(), sweepFor("nodeA"), seqStore)
	if err != nil {
		t.Fatal(err)
	}

	// 2-replica campaign.
	svc := hosttools.NewService(nil)
	repA, _ := newReplica("alpha", "nodeA", svc)
	repB, _ := newReplica("beta", "nodeB", svc)
	repA.Runner.Clock = clock
	repB.Runner.Clock = clock
	parStore := storeAt(t)
	parSum, err := (&Campaign{Replicas: []Replica{repA, repB}}).Run(context.Background(), parStore)
	if err != nil {
		t.Fatal(err)
	}

	seqExp, err := seqStore.OpenExperiment("user", "sweep", idFromDir(t, seqSum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	parExp, err := parStore.OpenExperiment("user", "sweep", idFromDir(t, parSum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 6; run++ {
		want, err := seqExp.ReadRunArtifact(run, "", "metadata.json")
		if err != nil {
			t.Fatal(err)
		}
		got, err := parExp.ReadRunArtifact(run, "", "metadata.json")
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("run %d metadata diverges:\nsequential: %s\ncampaign:   %s", run, want, got)
		}
	}
	// The archived definitions match too.
	for _, a := range []string{"experiment/loop-variables.json", "experiment/global-vars.json"} {
		want, _ := seqExp.ReadExperimentArtifact(a)
		got, err := parExp.ReadExperimentArtifact(a)
		if err != nil || string(want) != string(got) {
			t.Errorf("artifact %s diverges (%v)", a, err)
		}
	}
}

// TestCampaignRunTimeoutContinues: a hung run is cut off by its replica
// runner's RunTimeout and recorded as failed; with ContinueOnRunFailure the
// sweep still completes every other run.
func TestCampaignRunTimeoutContinues(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)
	hang := func(ctx context.Context, env map[string]string) error {
		if env["pkt_rate"] == "20000" && env["pkt_sz"] == "64" {
			<-ctx.Done() // wedged measurement: only the timeout frees it
			return ctx.Err()
		}
		return nil
	}
	hostA.onMeasure = hang
	hostB.onMeasure = hang
	repA.Runner.RunTimeout = 50 * time.Millisecond
	repB.Runner.RunTimeout = 50 * time.Millisecond

	store := storeAt(t)
	c := &Campaign{
		Replicas:             []Replica{repA, repB},
		ContinueOnRunFailure: true,
	}
	start := time.Now()
	sum, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatalf("continue-on-failure returned error: %v", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Fatal("hung run not bounded by the runner timeout")
	}
	if sum.FailedRuns != 1 || len(sum.Records) != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	// The timed-out run (index 1: pkt_sz=64, pkt_rate=20000) is the
	// failed one, and its failure is in the run metadata.
	if !sum.Records[1].Failed {
		t.Errorf("records = %+v", sum.Records)
	}
	exp, _ := store.OpenExperiment("user", "sweep", idFromDir(t, sum.ResultsDir))
	meta, err := exp.ReadRunMeta(1)
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Failed || meta.Error == "" {
		t.Errorf("meta = %+v", meta)
	}
}

// TestCampaignFailFast: without ContinueOnRunFailure the first failure
// cancels everything in flight and the campaign reports that run.
func TestCampaignFailFast(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)
	fail := func(ctx context.Context, env map[string]string) error {
		switch env["RUN"] {
		case "2":
			return errors.New("loadgen crashed")
		case "3", "4", "5":
			// Dispatched behind the failing run: hold until fail-fast
			// cancels the campaign, so the verdict does not hang on the
			// other replica losing a race against run 2's failure path.
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(10 * time.Second):
			}
		}
		return nil
	}
	hostA.onMeasure = fail
	hostB.onMeasure = fail

	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{repA, repB}}
	sum, err := c.Run(context.Background(), store)
	if err == nil || !strings.Contains(err.Error(), "run 2") {
		t.Fatalf("err = %v", err)
	}
	if sum.FailedRuns == 0 {
		t.Errorf("summary = %+v", sum)
	}
	// The sweep stopped early: not all 6 runs executed.
	if len(sum.Records) == 6 && sum.FailedRuns == 1 {
		t.Errorf("fail-fast executed the full sweep: %+v", sum)
	}
}

// TestCampaignCancellation: cancelling the campaign context stops the whole
// sweep promptly, including runs blocked in measurement.
func TestCampaignCancellation(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)
	ctx, cancel := context.WithCancel(context.Background())
	var measured atomic.Int32
	block := func(c context.Context, env map[string]string) error {
		if measured.Add(1) == 2 {
			cancel() // second run in flight cancels the campaign
		}
		<-c.Done()
		return c.Err()
	}
	hostA.onMeasure = block
	hostB.onMeasure = block

	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{repA, repB}, ContinueOnRunFailure: true}
	done := make(chan struct{})
	var sum *core.Summary
	var err error
	go func() {
		sum, err = c.Run(ctx, store)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign did not stop after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sum == nil || len(sum.Records) > 2 {
		t.Errorf("summary = %+v", sum)
	}
	// The cut-down runs are casualties of the cancellation, not failures
	// of their own: they land in CancelledRuns.
	if sum.FailedRuns != 0 {
		t.Errorf("FailedRuns = %d after cancellation, want 0", sum.FailedRuns)
	}
	if sum.CancelledRuns != len(sum.Records) {
		t.Errorf("CancelledRuns = %d, records = %d", sum.CancelledRuns, len(sum.Records))
	}
	for _, rec := range sum.Records {
		if !rec.Cancelled {
			t.Errorf("record %d not marked cancelled: %+v", rec.Run, rec)
		}
	}
}

// TestCampaignParallelBound: the campaign's parallelism is its replica
// count — each replica executes at most one run at a time, and the runs in
// flight never outnumber the replicas.
func TestCampaignParallelBound(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)
	var total, maxTotal atomic.Int32
	peak := func(cur, max *atomic.Int32) {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				return
			}
		}
	}
	track := func() (func(context.Context, map[string]string) error, *atomic.Int32) {
		var own, maxOwn atomic.Int32
		return func(ctx context.Context, env map[string]string) error {
			peak(&own, &maxOwn)
			peak(&total, &maxTotal)
			time.Sleep(time.Millisecond)
			total.Add(-1)
			own.Add(-1)
			return nil
		}, &maxOwn
	}
	var maxA, maxB *atomic.Int32
	hostA.onMeasure, maxA = track()
	hostB.onMeasure, maxB = track()

	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{repA, repB}}
	if _, err := c.Run(context.Background(), store); err != nil {
		t.Fatal(err)
	}
	if a, b := maxA.Load(), maxB.Load(); a != 1 || b != 1 {
		t.Errorf("max runs in flight per replica = %d (alpha), %d (beta), want 1 each", a, b)
	}
	if got := maxTotal.Load(); got > 2 {
		t.Errorf("max concurrent runs = %d with 2 replicas", got)
	}
}

func TestCampaignValidation(t *testing.T) {
	svc := hosttools.NewService(nil)
	mk := func(name, node string) Replica {
		r, _ := newReplica(name, node, svc)
		return r
	}
	store := storeAt(t)
	ctx := context.Background()

	cases := map[string]*Campaign{
		"no replicas": {},
		"duplicate replica names": {
			Replicas: []Replica{mk("alpha", "n1"), mk("alpha", "n2")},
		},
		"nested replica name": {
			Replicas: []Replica{{Name: "a/b", Runner: mk("x", "n1").Runner, Experiment: sweepFor("n1")}},
		},
		"overlapping nodes on shared service": {
			Replicas: []Replica{mk("alpha", "shared"), mk("beta", "shared")},
		},
	}
	divergent := mk("beta", "n2")
	divergent.Experiment.LoopVars = []core.LoopVar{{Name: "other", Values: []string{"1"}}}
	cases["divergent loop variables"] = &Campaign{Replicas: []Replica{mk("alpha", "n1"), divergent}}

	otherName := mk("beta", "n3")
	otherName.Experiment.Name = "different"
	cases["divergent experiment name"] = &Campaign{Replicas: []Replica{mk("alpha", "n1"), otherName}}

	otherImage := mk("beta", "n4")
	otherImage.Experiment.Hosts[0].Image = "debian-bullseye"
	cases["divergent image"] = &Campaign{Replicas: []Replica{mk("alpha", "n1"), otherImage}}

	otherGlobal := mk("beta", "n5")
	otherGlobal.Experiment.GlobalVars = core.Vars{"dut_mac": "02:00:00:00:00:99"}
	cases["divergent global vars"] = &Campaign{Replicas: []Replica{mk("alpha", "n1"), otherGlobal}}

	for name, c := range cases {
		if _, err := c.Run(ctx, store); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestCampaignSingleReplica degenerates to the sequential sweep.
func TestCampaignSingleReplica(t *testing.T) {
	svc := hosttools.NewService(nil)
	rep, _ := newReplica("solo", "nodeA", svc)
	store := storeAt(t)
	sum, err := (&Campaign{Replicas: []Replica{rep}}).Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.TotalRuns != 6 || len(sum.Records) != 6 || sum.FailedRuns != 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// intsFrom returns [from..to] — occurrence lists for fault plans.
func intsFrom(from, to int) []int {
	var out []int
	for i := from; i <= to; i++ {
		out = append(out, i)
	}
	return out
}

// TestCampaignRetriesWithCleanSlateResetup: a run that fails twice succeeds
// on its third attempt, each retry preceded by a clean-slate reboot and
// re-setup. The attempt history is the event journal; the summary reports no
// failed runs.
func TestCampaignRetriesWithCleanSlateResetup(t *testing.T) {
	svc := hosttools.NewService(nil)
	rep, host := newReplica("solo", "nodeA", svc)
	wedgeRun3Twice(host)

	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{rep}, MaxAttempts: 3}
	sum, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FailedRuns != 0 || sum.CancelledRuns != 0 || len(sum.Records) != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	for _, rec := range sum.Records {
		want := 1
		if rec.Run == 3 {
			want = 3
		}
		if rec.Attempts != want {
			t.Errorf("run %d attempts = %d, want %d", rec.Run, rec.Attempts, want)
		}
	}
	// One boot from Prepare; one clean-slate re-setup before each of the
	// two retries of run 3; and one before run 4, dispatched while the
	// replica was still dirty from run 3's first failure.
	host.mu.Lock()
	reboots := host.reboots
	host.mu.Unlock()
	if reboots != 4 {
		t.Errorf("reboots = %d, want 4 (prepare + 3 clean-slate re-setups)", reboots)
	}
	// The journal is the attempt history: RunOne's events carry the attempt
	// of a retry, and the campaign's requeue decisions sit between them.
	dispatched, failed := map[int][]int{}, map[int][]int{}
	var requeues []string
	for _, ev := range replayRuns(t, sum.ResultsDir) {
		if ev.Replica != "solo" {
			t.Errorf("event %+v off replica solo", ev)
		}
		attempt := max(1, ev.Attempt)
		switch {
		case ev.Message == sum.Records[ev.Run].Combo.Key():
			dispatched[ev.Run] = append(dispatched[ev.Run], attempt)
		case strings.HasPrefix(ev.Message, "run failed: "):
			failed[ev.Run] = append(failed[ev.Run], attempt)
			if !strings.Contains(ev.Error, "generator wedged") {
				t.Errorf("run %d attempt %d error = %q", ev.Run, attempt, ev.Error)
			}
		case strings.Contains(ev.Message, "requeueing"):
			requeues = append(requeues, fmt.Sprintf("%d@%d", ev.Run, attempt))
		}
	}
	for run := 0; run < 6; run++ {
		want := []int{1}
		if run == 3 {
			want = []int{1, 2, 3}
		}
		if fmt.Sprint(dispatched[run]) != fmt.Sprint(want) {
			t.Errorf("run %d dispatched at attempts %v, want %v", run, dispatched[run], want)
		}
	}
	if len(failed) != 1 || fmt.Sprint(failed[3]) != "[1 2]" {
		t.Errorf("failed attempts = %v, want run 3 at [1 2]", failed)
	}
	if want := []string{"3@1", "3@2"}; fmt.Sprint(requeues) != fmt.Sprint(want) {
		t.Errorf("journaled requeues (run@attempt) = %q, want %q", requeues, want)
	}
}

// wedgeRun3Twice fails the first two measurements of run 3 on host.
func wedgeRun3Twice(host *fakeHost) {
	var fails atomic.Int32
	host.onMeasure = func(ctx context.Context, env map[string]string) error {
		if env["RUN"] == "3" && fails.Add(1) <= 2 {
			return errors.New("generator wedged")
		}
		return nil
	}
}

// TestTimelineCountsRetriesFromJournal: the analysis of a campaign whose run
// 3 needed three attempts reads the attempts off the journal — 3 for run 3,
// 1 for every other run — with no attempts file beside it.
func TestTimelineCountsRetriesFromJournal(t *testing.T) {
	rep, host := newReplica("solo", "nodeA", hosttools.NewService(nil))
	wedgeRun3Twice(host)
	c := &Campaign{Replicas: []Replica{rep}, MaxAttempts: 3}
	sum, err := c.Run(context.Background(), storeAt(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(sum.ResultsDir, "experiment", "attempts.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("attempts.json beside the journal: %v", err)
	}
	tl, err := timeline.Assemble(sum.ResultsDir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]int{}
	for _, r := range tl.Runs {
		got[r.Run] = r.Attempts
	}
	want := map[int]int{0: 1, 1: 1, 2: 1, 3: 3, 4: 1, 5: 1}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("timeline attempts = %v, want %v", got, want)
	}
}

// TestCampaignCancelledBeforeRetryDispatchesNothing: a campaign torn down
// between a failed attempt and its requeued retry never dispatches that
// retry, so nothing in the journal carries its attempt and the analysis
// counts the run's one dispatch.
func TestCampaignCancelledBeforeRetryDispatchesNothing(t *testing.T) {
	rep, host := newReplica("solo", "nodeA", hosttools.NewService(nil))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Run 3's first attempt fails on its own account (not as collateral of
	// the cancellation), so it is requeued while the campaign goes down.
	host.onMeasure = func(_ context.Context, env map[string]string) error {
		if env["RUN"] == "3" {
			cancel()
			return errors.New("generator wedged")
		}
		return nil
	}
	c := &Campaign{Replicas: []Replica{rep}, MaxAttempts: 3}
	sum, err := c.Run(ctx, storeAt(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want the cancellation", err)
	}
	host.mu.Lock()
	var measured3 int
	for _, env := range host.execs {
		if env["RUN"] == "3" {
			measured3++
		}
	}
	host.mu.Unlock()
	if measured3 != 1 {
		t.Errorf("run 3 measured %d times, want once", measured3)
	}
	for _, ev := range replayRuns(t, sum.ResultsDir) {
		if ev.Attempt > 1 {
			t.Errorf("journal carries attempt %d of run %d, never dispatched: %+v", ev.Attempt, ev.Run, ev)
		}
	}
	tl, err := timeline.Assemble(sum.ResultsDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tl.Runs {
		if r.Attempts != 1 {
			t.Errorf("timeline: run %d attempts = %d, want 1", r.Run, r.Attempts)
		}
	}
}

// replayRuns returns a campaign journal's run-attached progress events.
func replayRuns(t *testing.T, expDir string) []eventlog.Event {
	t.Helper()
	evs, err := eventlog.Replay(filepath.Join(expDir, "events"))
	if err != nil {
		t.Fatal(err)
	}
	var out []eventlog.Event
	for _, ev := range evs {
		if ev.Typ == eventlog.TypeProgress && ev.Run != eventlog.NoRun {
			out = append(out, ev)
		}
	}
	return out
}

// TestCampaignQuarantinesFailingReplica: one of three replicas fails every
// measurement; after QuarantineAfter consecutive failures it is drained and
// the survivors complete the full sweep without a single failed run.
func TestCampaignQuarantinesFailingReplica(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)
	repC, hostC := newReplica("gamma", "nodeC", svc)
	hostB.onMeasure = func(ctx context.Context, env map[string]string) error {
		return errors.New("NIC dead")
	}
	// The healthy replicas hold their first runs until beta is drained, so
	// beta deterministically accumulates its consecutive failures instead
	// of racing the queue against instant successes.
	quarantined := make(chan struct{})
	wait := func(ctx context.Context, env map[string]string) error {
		select {
		case <-quarantined:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("quarantine event never fired")
		}
	}
	hostA.onMeasure = wait
	hostC.onMeasure = wait

	store := storeAt(t)
	events := eventlog.NewPipeline()
	defer events.Watch(0, closeOnQuarantine(quarantined))()
	c := &Campaign{
		Replicas:        []Replica{repA, repB, repC},
		MaxAttempts:     4,
		QuarantineAfter: 2,
		Events:          events,
	}
	sum, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FailedRuns != 0 || len(sum.Records) != 6 {
		t.Fatalf("summary = %+v", sum)
	}
	if len(sum.Quarantined) != 1 || sum.Quarantined[0] != "beta" {
		t.Fatalf("quarantined = %v", sum.Quarantined)
	}
	retried := 0
	for _, rec := range sum.Records {
		if rec.Failed {
			t.Errorf("run %d failed: %s", rec.Run, rec.Error)
		}
		if rec.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no run records a retry despite beta failing")
	}
	exp, err := store.OpenExperiment("user", "sweep", idFromDir(t, sum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 6; run++ {
		if _, err := exp.ReadRunMeta(run); err != nil {
			t.Errorf("run %d metadata: %v", run, err)
		}
	}
	var drained []string
	for _, ev := range replayRuns(t, sum.ResultsDir) {
		if strings.Contains(ev.Message, "quarantined") {
			drained = append(drained, ev.Replica+": "+ev.Message)
		}
	}
	if want := "beta: replica quarantined after 2 consecutive failures"; len(drained) != 1 || drained[0] != want {
		t.Errorf("journaled quarantines = %q, want [%q]", drained, want)
	}
}

// TestCampaignAllReplicasQuarantined: when every replica is drained the
// campaign stops with an explicit error instead of hanging on an empty
// worker pool.
func TestCampaignAllReplicasQuarantined(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)
	die := func(ctx context.Context, env map[string]string) error {
		return errors.New("power loss")
	}
	hostA.onMeasure = die
	hostB.onMeasure = die

	store := storeAt(t)
	c := &Campaign{
		Replicas:        []Replica{repA, repB},
		MaxAttempts:     10,
		QuarantineAfter: 2,
	}
	done := make(chan struct{})
	var sum *core.Summary
	var err error
	go func() {
		sum, err = c.Run(context.Background(), store)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("campaign hung with every replica quarantined")
	}
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want all-quarantined error", err)
	}
	if len(sum.Quarantined) != 2 {
		t.Errorf("quarantined = %v", sum.Quarantined)
	}
}

// TestCampaignFaultInjectionMetadataByteIdentical is the acceptance case: a
// 3-replica campaign with one replica injected (via the deterministic fault
// plan) to fail every exec after setup completes the full sweep on the
// survivors, quarantines the faulty replica, and still produces per-run
// metadata.json byte-identical to a fault-free sequential execution.
func TestCampaignFaultInjectionMetadataByteIdentical(t *testing.T) {
	clock := func() time.Time { return time.Date(2021, 12, 7, 10, 0, 0, 0, time.UTC) }

	// Fault-free sequential reference.
	seqHost := &fakeHost{name: "nodeA"}
	seqRunner := &core.Runner{
		Hosts:   map[string]core.Host{"nodeA": seqHost},
		Service: hosttools.NewService(nil),
		Clock:   clock,
	}
	seqStore := storeAt(t)
	seqSum, err := seqRunner.Run(context.Background(), sweepFor("nodeA"), seqStore)
	if err != nil {
		t.Fatal(err)
	}

	// Campaign with beta's node failing every exec after its setup script
	// (occurrence 1): measurements and clean-slate re-setups alike.
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, _ := newReplica("beta", "nodeB", svc)
	repC, hostC := newReplica("gamma", "nodeC", svc)
	repA.Runner.Clock = clock
	repB.Runner.Clock = clock
	repC.Runner.Clock = clock
	repB.Runner.InjectFaults(sim.NewFaultInjector(map[string]sim.FaultPlan{
		"nodeB": {FailExecs: intsFrom(2, 40)},
	}))

	// Hold the survivors' first runs until beta is drained (see
	// TestCampaignQuarantinesFailingReplica).
	quarantined := make(chan struct{})
	wait := func(ctx context.Context, env map[string]string) error {
		select {
		case <-quarantined:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Second):
			return errors.New("quarantine event never fired")
		}
	}
	hostA.onMeasure = wait
	hostC.onMeasure = wait

	parStore := storeAt(t)
	events := eventlog.NewPipeline()
	defer events.Watch(0, closeOnQuarantine(quarantined))()
	c := &Campaign{
		Replicas:        []Replica{repA, repB, repC},
		MaxAttempts:     4,
		QuarantineAfter: 2,
		Events:          events,
	}
	parSum, err := c.Run(context.Background(), parStore)
	if err != nil {
		t.Fatal(err)
	}
	if parSum.FailedRuns != 0 || len(parSum.Records) != 6 {
		t.Fatalf("summary = %+v", parSum)
	}
	if len(parSum.Quarantined) != 1 || parSum.Quarantined[0] != "beta" {
		t.Fatalf("quarantined = %v", parSum.Quarantined)
	}

	seqExp, err := seqStore.OpenExperiment("user", "sweep", idFromDir(t, seqSum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	parExp, err := parStore.OpenExperiment("user", "sweep", idFromDir(t, parSum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 6; run++ {
		want, err := seqExp.ReadRunArtifact(run, "", "metadata.json")
		if err != nil {
			t.Fatal(err)
		}
		got, err := parExp.ReadRunArtifact(run, "", "metadata.json")
		if err != nil {
			t.Fatal(err)
		}
		if string(want) != string(got) {
			t.Errorf("run %d metadata diverges under faults:\nsequential: %s\ncampaign:   %s", run, want, got)
		}
	}
}

// TestCampaignFailFastAccounting: under fail-fast, the run that failed is
// the only FailedRun; a sibling run cut down mid-measurement by the
// cancellation is accounted as cancelled, not failed.
func TestCampaignFailFastAccounting(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)
	var gate sync.WaitGroup
	gate.Add(2) // both runs in flight before the failure fires
	hook := func(ctx context.Context, env map[string]string) error {
		gate.Done()
		if env["RUN"] == "0" {
			gate.Wait()
			return errors.New("loadgen crashed")
		}
		<-ctx.Done()
		return ctx.Err()
	}
	hostA.onMeasure = hook
	hostB.onMeasure = hook

	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{repA, repB}}
	sum, err := c.Run(context.Background(), store)
	if err == nil || !strings.Contains(err.Error(), "run 0") {
		t.Fatalf("err = %v", err)
	}
	if sum.FailedRuns != 1 {
		t.Errorf("FailedRuns = %d, want 1 (the culprit only)", sum.FailedRuns)
	}
	if sum.CancelledRuns != 1 {
		t.Errorf("CancelledRuns = %d, want 1 (the collateral run)", sum.CancelledRuns)
	}
	var culprit, casualty *core.RunRecord
	for i := range sum.Records {
		rec := &sum.Records[i]
		switch rec.Run {
		case 0:
			culprit = rec
		case 1:
			casualty = rec
		}
	}
	if culprit == nil || !culprit.Failed || culprit.Cancelled {
		t.Errorf("culprit record = %+v", culprit)
	}
	if casualty == nil || !casualty.Cancelled {
		t.Errorf("casualty record = %+v", casualty)
	}
}

func TestCampaignArchivesSpansWithReplicaLanes(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, _ := newReplica("alpha", "nodeA", svc)
	repB, _ := newReplica("beta", "nodeB", svc)
	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{repA, repB}}
	sum, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := store.OpenExperiment("user", "sweep", filepath.Base(sum.ResultsDir))
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
		byName[rec.Name]++
	}
	if byName["campaign:sweep"] != 1 {
		t.Errorf("campaign root span missing: %v", byName)
	}
	for _, want := range []string{"prepare:alpha", "prepare:beta", "replica:alpha", "replica:beta"} {
		if byName[want] != 1 {
			t.Errorf("span %q count = %d, want 1 (%v)", want, byName[want], byName)
		}
	}
	runSpans := 0
	for name, n := range byName {
		if strings.HasPrefix(name, "run ") {
			runSpans += n
		}
	}
	if runSpans != 6 {
		t.Errorf("run spans = %d, want 6 (%v)", runSpans, byName)
	}
	// Round-trip through the Chrome converter: every replica gets a lane.
	chrome, err := telemetry.ChromeTrace(recs)
	if err != nil {
		t.Fatal(err)
	}
	var events []telemetry.ChromeEvent
	if err := json.Unmarshal(chrome, &events); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	laneOf := map[string]int{}
	for _, ev := range events {
		if strings.HasPrefix(ev.Name, "replica:") {
			laneOf[ev.Name] = ev.Tid
		}
	}
	if len(laneOf) != 2 || laneOf["replica:alpha"] == laneOf["replica:beta"] {
		t.Errorf("replica lanes = %v, want distinct", laneOf)
	}
}

func TestCampaignRetryEventsCarryError(t *testing.T) {
	svc := hosttools.NewService(nil)
	rep, h := newReplica("alpha", "nodeA", svc)
	var failed atomic.Bool
	h.onMeasure = func(ctx context.Context, env map[string]string) error {
		if env["pkt_sz"] == "1500" && env["pkt_rate"] == "20000" && !failed.Swap(true) {
			return errors.New("loadgen wedged")
		}
		return nil
	}
	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{rep}, MaxAttempts: 2}
	sum, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if sum.FailedRuns != 0 {
		t.Fatalf("summary = %+v", sum)
	}
	evs, err := eventlog.Replay(filepath.Join(sum.ResultsDir, eventlog.JournalDir))
	if err != nil {
		t.Fatal(err)
	}
	var withError []eventlog.Event
	for _, ev := range evs {
		if ev.Typ == eventlog.TypeProgress && ev.Error != "" {
			withError = append(withError, ev)
		}
	}
	if len(withError) == 0 {
		t.Fatal("no progress events carried the failure error")
	}
	requeued := false
	for _, ev := range withError {
		if !strings.Contains(ev.Error, "loadgen wedged") {
			t.Errorf("event error = %q, want the measurement failure", ev.Error)
		}
		if strings.Contains(ev.Message, "requeueing") {
			requeued = true
		}
	}
	if !requeued {
		t.Error("retry event with Error not observed")
	}
}

// TestCampaignArchivesSpansOnFailure: an aborted campaign's span trace is
// precisely the one worth post-morteming, so spans.json must land in the
// results tree on the failure exit path too.
func TestCampaignArchivesSpansOnFailure(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, hostA := newReplica("alpha", "nodeA", svc)
	repB, hostB := newReplica("beta", "nodeB", svc)
	fail := func(ctx context.Context, env map[string]string) error {
		return errors.New("loadgen crashed")
	}
	hostA.onMeasure = fail
	hostB.onMeasure = fail
	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{repA, repB}}
	sum, err := c.Run(context.Background(), store)
	if err == nil {
		t.Fatal("campaign succeeded, want fail-fast abort")
	}
	if sum == nil || sum.ResultsDir == "" {
		t.Fatalf("aborted campaign returned no summary/results dir: %+v", sum)
	}
	exp, err := store.OpenExperiment("user", "sweep", filepath.Base(sum.ResultsDir))
	if err != nil {
		t.Fatal(err)
	}
	data, err := exp.ReadExperimentArtifact("spans.json")
	if err != nil {
		t.Fatalf("spans.json not archived on abort: %v", err)
	}
	recs, err := telemetry.ParseSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("spans.json empty on abort")
	}
}

// TestCampaignJournalsEvents: every campaign journals its events under the
// experiment directory — even without a caller-attached pipeline — and the
// replayed sequence is complete and ordered.
func TestCampaignJournalsEvents(t *testing.T) {
	svc := hosttools.NewService(nil)
	repA, _ := newReplica("alpha", "nodeA", svc)
	repB, _ := newReplica("beta", "nodeB", svc)
	store := storeAt(t)
	c := &Campaign{Replicas: []Replica{repA, repB}}
	sum, err := c.Run(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	if c.Events != nil {
		t.Error("private pipeline leaked out of Run")
	}
	evs, err := eventlog.Replay(filepath.Join(sum.ResultsDir, "events"))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("no journaled events")
	}
	if got := evs[0].Message; !strings.Contains(got, "campaign started") {
		t.Errorf("first event = %q, want campaign start", got)
	}
	if got := evs[len(evs)-1].Message; !strings.Contains(got, "campaign finished") {
		t.Errorf("last event = %q, want campaign finish", got)
	}
	var last uint64
	replicas := map[string]bool{}
	runs := map[int]bool{}
	for _, ev := range evs {
		if ev.Seq <= last {
			t.Fatalf("sequence not strictly increasing: %d after %d", ev.Seq, last)
		}
		last = ev.Seq
		if ev.Replica != "" {
			replicas[ev.Replica] = true
		}
		if ev.Typ == eventlog.TypeProgress && ev.TotalRuns > 0 {
			runs[ev.Run] = true
		}
	}
	if !replicas["alpha"] || !replicas["beta"] {
		t.Errorf("journal missing replica events: %v", replicas)
	}
	if len(runs) != 6 {
		t.Errorf("journaled run starts = %d, want 6 (%v)", len(runs), runs)
	}
}

// closeOnQuarantine returns an event watcher that closes ch once the
// campaign announces a quarantine.
func closeOnQuarantine(ch chan struct{}) func(eventlog.Event) {
	var once sync.Once
	return func(ev eventlog.Event) {
		if strings.Contains(ev.Message, "quarantined") {
			once.Do(func() { close(ch) })
		}
	}
}
