package casestudy

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pos/internal/compare"
	"pos/internal/core"
	"pos/internal/eventlog"
	"pos/internal/results"
	"pos/internal/sched"
	"pos/internal/telemetry"
)

// TestParseSpecDefaults: an empty file is DefaultSpec, and DefaultSpec is
// what posctl run ran before it took a spec file: the bare-metal rig, seed 1,
// sizes 64 and 1500 at 10k/100k/300k pps for 1 s, one testbed, one attempt.
func TestParseSpecDefaults(t *testing.T) {
	got, err := ParseSpec(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{Flavor: BareMetal, Seed: 1, Sizes: []int{64, 1500}, Rates: []int{10_000, 100_000, 300_000},
		Runtime: 1, Replicas: 1, Retries: 1}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(DefaultSpec(), want) {
		t.Errorf("empty spec = %+v, DefaultSpec = %+v, want %+v", got, DefaultSpec(), want)
	}
	const canonical = `flavor: pos
seed: 1
sizes: [64, 1500]
rates: [10000, 100000, 300000]
runtime: 1
replicas: 1
retries: 1
quarantine: 0
chain: 0
clusters: 0
epoch: ""
`
	if m := string(want.Marshal()); m != canonical {
		t.Errorf("Marshal(DefaultSpec) =\n%s\nwant\n%s", m, canonical)
	}
}

// TestParseSpecResolvesAndRoundTrips: a chain's clusters resolve to 2 (at
// most the chain length), a scalar size list is a one-element list, CRLF
// files parse, and the marshalled form parses back equal.
func TestParseSpecResolvesAndRoundTrips(t *testing.T) {
	cases := []struct {
		in   string
		want func(*Spec)
	}{
		{"flavor: vpos\r\nchain: 8\r\nseed: 3\r\n", func(s *Spec) { s.Flavor, s.Chain, s.Clusters, s.Seed = Virtual, 8, 2, 3 }},
		{"chain: 3\nclusters: 5\n", func(s *Spec) { s.Chain, s.Clusters = 3, 3 }},
		{"sizes: 64\nrates:\n  - 10000\n  - 20000\n", func(s *Spec) { s.Sizes, s.Rates = []int{64}, []int{10000, 20000} }},
		{"replicas: 2\nretries: 3\nquarantine: 1\nruntime: 0.25\n", func(s *Spec) { s.Replicas, s.Retries, s.Quarantine, s.Runtime = 2, 3, 1, 0.25 }},
		{"epoch: 2021-10-12T11:20:32Z # pinned\n", func(s *Spec) { s.Epoch = "2021-10-12T11:20:32Z" }},
	}
	for _, c := range cases {
		got, err := ParseSpec([]byte(c.in))
		if err != nil {
			t.Errorf("%q: %v", c.in, err)
			continue
		}
		want := DefaultSpec()
		c.want(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q = %+v, want %+v", c.in, got, want)
		}
		again, err := ParseSpec(got.Marshal())
		if err != nil || !reflect.DeepEqual(again, got) {
			t.Errorf("%q: round trip = %+v, %v", c.in, again, err)
		}
	}
}

// TestParseSpecErrorsNameTheKey: nothing a tenant can type falls back to a
// default silently.
func TestParseSpecErrorsNameTheKey(t *testing.T) {
	for in, key := range map[string]string{
		"replicas: two\n":         "replicas",
		"sizes: [64, abc]\n":      "sizes",
		"rates: 1e4\n":            "rates",
		"seed: -1\n":              "seed",
		"runtime: soon\n":         "runtime",
		"retries: [1, 2]\n":       "retries",
		"replica: 2\n":            `replica`,
		"flavor: virtual\n":       "flavor",
		"epoch: yesterday\n":      "epoch",
		"sizes: []\n":             "sizes",
		"chain: 2\nreplicas: 2\n": "chain",
	} {
		_, err := ParseSpec([]byte(in))
		if err == nil || !strings.Contains(err.Error(), key) {
			t.Errorf("ParseSpec(%q) = %v, want an error naming %s", in, err, key)
		}
	}
}

// TestShippedCampaignSpecsParse: every campaign.yml shipped under
// experiments/ is valid.
func TestShippedCampaignSpecsParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "experiments", "campaigns", "*.yml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("shipped specs = %v, %v", files, err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(data); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestSpecValidate has one row per rule: posctl run's former cross-flag
// checks first, then the field checks the flags left to the runtime.
func TestSpecValidate(t *testing.T) {
	rows := []struct {
		name string
		edit func(*Spec)
		want string // "" accepts
	}{
		{"defaults", func(*Spec) {}, ""},
		{"unknown flavor", func(s *Spec) { s.Flavor = "virtual" }, "flavor"},
		{"replicas below 1", func(s *Spec) { s.Replicas = 0 }, "replicas"},
		{"retries below 1", func(s *Spec) { s.Retries = 0 }, "retries"},
		{"negative quarantine", func(s *Spec) { s.Quarantine = -1 }, "quarantine"},
		{"negative chain", func(s *Spec) { s.Chain = -1 }, "chain"},
		{"clusters without chain", func(s *Spec) { s.Clusters = 2 }, "clusters"},
		{"chain with replicas", func(s *Spec) { s.Chain, s.Clusters, s.Replicas = 4, 2, 2 }, "chain"},
		{"chain with retries", func(s *Spec) { s.Chain, s.Clusters, s.Retries = 4, 2, 2 }, "chain"},
		{"chain with quarantine", func(s *Spec) { s.Chain, s.Clusters, s.Quarantine = 4, 2, 1 }, "chain"},
		{"epoch on replicas", func(s *Spec) { s.Epoch, s.Replicas = "2021-10-12T11:20:32Z", 2 }, "epoch"},
		{"epoch with retries", func(s *Spec) { s.Epoch, s.Retries = "2021-10-12T11:20:32Z", 2 }, "epoch"},
		{"epoch with quarantine", func(s *Spec) { s.Epoch, s.Quarantine = "2021-10-12T11:20:32Z", 1 }, "epoch"},
		{"epoch not RFC 3339", func(s *Spec) { s.Epoch = "2021-10-12 11:20:32" }, "epoch"},
		{"epoch on one testbed", func(s *Spec) { s.Epoch = "2021-10-12T11:20:32+02:00" }, ""},
		{"chain on one testbed", func(s *Spec) { s.Chain, s.Clusters = 8, 4 }, ""},
		{"negative clusters", func(s *Spec) { s.Chain, s.Clusters = 4, -1 }, "clusters"},
		{"no sizes", func(s *Spec) { s.Sizes = nil }, "sizes"},
		{"zero size", func(s *Spec) { s.Sizes = []int{64, 0} }, "sizes"},
		{"no rates", func(s *Spec) { s.Rates = []int{} }, "rates"},
		{"negative rate", func(s *Spec) { s.Rates = []int{-10} }, "rates"},
		{"zero runtime", func(s *Spec) { s.Runtime = 0 }, "runtime"},
		{"runtime past a sim.Duration", func(s *Spec) { s.Runtime = 1e300 }, "runtime"},
	}
	for _, r := range rows {
		s := DefaultSpec()
		r.edit(&s)
		err := s.Validate()
		switch {
		case r.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", r.name, err)
		case r.want != "" && (err == nil || !strings.HasPrefix(err.Error(), "campaign: "+r.want+":")):
			t.Errorf("%s: Validate() = %v, want an error on %s", r.name, err, r.want)
		}
	}
}

// FuzzParseSpec: no input panics the decoder (or yamlite under it), and every
// accepted spec survives Marshal unchanged.
func FuzzParseSpec(f *testing.F) {
	f.Add(DefaultSpec().Marshal()) // the rest of the seeds live in testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		again, err := ParseSpec(s.Marshal())
		if err != nil {
			t.Fatalf("accepted spec %+v does not reparse: %v\n%s", s, err, s.Marshal())
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, again)
		}
	})
}

// withoutTelemetry disables spans and resources.json for the test, the way a
// pinned posctl run does.
func withoutTelemetry(t *testing.T) {
	telemetry.Default.SetEnabled(false)
	t.Cleanup(func() { telemetry.Default.SetEnabled(true) })
}

// onlyExperiment opens the single experiment a store holds under user/name.
func onlyExperiment(t *testing.T, store *results.Store, user, name string) *results.Experiment {
	t.Helper()
	ids, err := store.ListExperiments(user, name)
	if err != nil || len(ids) != 1 {
		t.Fatalf("%s/%s executions = %v, %v", user, name, ids, err)
	}
	e, err := store.OpenExperiment(user, name, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestLaunchSingleMatchesRunner: a one-testbed spec launches exactly the run
// a hand-wired Runner performs — the same tree, event journal included — plus
// the archived experiment/campaign.yml.
func TestLaunchSingleMatchesRunner(t *testing.T) {
	withoutTelemetry(t)
	spec, err := ParseSpec([]byte("flavor: vpos\nsizes: [64]\nrates: [10000, 20000]\nseed: 3\nepoch: 2021-10-12T11:20:32Z\n"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Launch(context.Background(), spec, nil, store, eventlog.NewPipeline()); err != nil {
		t.Fatal(err)
	}

	pinned := func() time.Time { return time.Date(2021, 10, 12, 11, 20, 32, 0, time.UTC) }
	topo, err := New(Virtual, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	defer topo.Close()
	runner := topo.Testbed.Runner()
	runner.Clock = pinned
	runner.Events = eventlog.NewPipeline()
	runner.Events.SetClock(pinned)
	ref, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Sizes: []int{64}, RatesPPS: []int{10000, 20000}, RuntimeSec: 1}
	if _, err := runner.Run(context.Background(), topo.Experiment(cfg), ref); err != nil {
		t.Fatal(err)
	}

	got := onlyExperiment(t, store, "user", "linux-router-vpos")
	diffs, err := compare.DiffExperiments(onlyExperiment(t, ref, "user", "linux-router-vpos").Dir(), got.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || !strings.HasPrefix(diffs[0], filepath.FromSlash(specArtifact)+": only in ") {
		t.Errorf("diff against the hand-wired runner = %q, want only %s", diffs, specArtifact)
	}
	archived, err := got.ReadExperimentArtifact(specArtifact)
	if err != nil {
		t.Fatal(err)
	}
	if string(archived) != string(spec.Marshal()) {
		t.Errorf("archived spec =\n%s\nwant\n%s", archived, spec.Marshal())
	}
}

// campaignRecord is what a campaign tree must share with any other campaign
// of the same spec: the dispatcher's choice of replica aside, campaign.json,
// the journal's retry history and every run's number, loop variables and
// outcome.
type campaignRecord struct {
	Campaign struct {
		Replicas  []string `json:"replicas"`
		Parallel  int      `json:"parallel"`
		TotalRuns int      `json:"total_runs"`
	}
	// Dispatched and Failed map each run to the attempts the journal shows
	// it dispatched at and failed at, in order.
	Dispatched, Failed map[int][]int
	Runs               []results.RunMeta
}

func readCampaignRecord(t *testing.T, e *results.Experiment) campaignRecord {
	t.Helper()
	var rec campaignRecord
	data, err := e.ReadExperimentArtifact("experiment/campaign.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec.Campaign); err != nil {
		t.Fatalf("campaign.json: %v", err)
	}
	runs, err := e.Runs()
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[int]string, len(runs))
	for _, run := range runs {
		m, err := e.ReadRunMeta(run)
		if err != nil {
			t.Fatal(err)
		}
		m.StartedAt, m.FinishedAt = time.Time{}, time.Time{}
		rec.Runs = append(rec.Runs, m)
		keys[run] = core.Combination(m.LoopVars).Key()
	}
	evs, err := eventlog.Replay(filepath.Join(e.Dir(), "events"))
	if err != nil {
		t.Fatal(err)
	}
	rec.Dispatched, rec.Failed = map[int][]int{}, map[int][]int{}
	for _, ev := range evs {
		if ev.Typ != eventlog.TypeProgress || ev.Run == eventlog.NoRun {
			continue
		}
		switch attempt := max(1, ev.Attempt); {
		case ev.Message == keys[ev.Run]:
			rec.Dispatched[ev.Run] = append(rec.Dispatched[ev.Run], attempt)
		case strings.HasPrefix(ev.Message, "run failed: "):
			rec.Failed[ev.Run] = append(rec.Failed[ev.Run], attempt)
		}
	}
	return rec
}

// TestLaunchCampaignMatchesHandBuilt: a replicas/retries spec launches the
// campaign posctl run used to wire by hand from replicas and retries flags.
func TestLaunchCampaignMatchesHandBuilt(t *testing.T) {
	withoutTelemetry(t)
	spec, err := ParseSpec([]byte("flavor: vpos\nsizes: [64, 1500]\nrates: [10000, 20000]\nreplicas: 2\nretries: 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Launch(context.Background(), spec, nil, store, nil); err != nil {
		t.Fatal(err)
	}

	topos, err := NewReplicas(Virtual, 2, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topos {
		defer topo.Close()
	}
	ref, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SweepConfig{Sizes: []int{64, 1500}, RatesPPS: []int{10000, 20000}, RuntimeSec: 1}
	c := &sched.Campaign{Replicas: Replicas(topos, cfg), MaxAttempts: 2}
	if _, err := c.Run(context.Background(), ref); err != nil {
		t.Fatal(err)
	}

	got := readCampaignRecord(t, onlyExperiment(t, store, "user", "linux-router-vpos"))
	want := readCampaignRecord(t, onlyExperiment(t, ref, "user", "linux-router-vpos"))
	if len(got.Runs) != 4 || len(got.Dispatched) != 4 || !reflect.DeepEqual(got, want) {
		t.Errorf("launched campaign\n%+v\nhand-built campaign\n%+v", got, want)
	}
}

// TestSpecCampaignCarriesRetryPolicy: the campaign a spec launches retries
// and quarantines as the spec's retries: and quarantine: keys say. A
// fault-free sweep never exercises either, so the wiring is checked here.
func TestSpecCampaignCarriesRetryPolicy(t *testing.T) {
	spec, err := ParseSpec([]byte("flavor: vpos\nreplicas: 2\nretries: 3\nquarantine: 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	topos, err := NewReplicas(Virtual, 2, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, topo := range topos {
		defer topo.Close()
	}
	c := spec.newCampaign(topos, spec.Experiment(), nil)
	if c.MaxAttempts != 3 || c.QuarantineAfter != 2 {
		t.Errorf("campaign MaxAttempts = %d, QuarantineAfter = %d; spec says retries: 3, quarantine: 2", c.MaxAttempts, c.QuarantineAfter)
	}
	if len(c.Replicas) != 2 || c.Replicas[0].Name != "replica0" || c.Replicas[1].Name != "replica1" {
		t.Errorf("campaign replicas = %+v", c.Replicas)
	}
}
