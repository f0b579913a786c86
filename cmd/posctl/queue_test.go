package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"pos/internal/api"
	"pos/internal/casestudy"
	"pos/internal/eval"
	"pos/internal/eventlog"
	"pos/internal/publish"
	"pos/internal/queue"
	"pos/internal/results"
	"pos/internal/testbed"
)

// queueStack serves a two-node controller with the campaign queue and
// posctl's launcher, wired the way posctl serve wires them.
func queueStack(t *testing.T) (addr string, store *results.Store) {
	t.Helper()
	tb := testbed.New()
	t.Cleanup(tb.Close)
	for _, n := range []string{"vriga", "vtartu"} {
		if _, err := tb.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := api.Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	if store, err = results.NewStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	qdir, err := store.ControlDir("queue")
	if err != nil {
		t.Fatal(err)
	}
	q, err := queue.Open(queue.Config{
		Dir:           qdir,
		Calendar:      tb.Calendar,
		Launch:        queueLaunch(store),
		SweepInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	srv.SetQueue(q)
	return srv.Addr(), store
}

// waitFinished polls a campaign until it reaches a terminal state.
func waitFinished(t *testing.T, c *api.Client, id int) api.CampaignView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, err := c.Campaign(id)
		if err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case string(queue.StateDone), string(queue.StateFailed), string(queue.StateCancelled):
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("campaign %d never finished", id)
	return api.CampaignView{}
}

// TestQueueMalformedSpecFailsNamingKey: a spec the launcher cannot decode
// fails its submission with an error naming the key — it never runs with a
// default in the bad value's place.
func TestQueueMalformedSpecFailsNamingKey(t *testing.T) {
	addr, store := queueStack(t)
	c := api.NewClient(addr)
	for spec, key := range map[string]string{
		"replicas: two\n":      "replicas",
		"sizes: [64, abc]\n":   "sizes",
		"rates: 10000/20000\n": "rates",
		"flavor: virtual\n":    "flavor",
		"replica: 2\n":         "replica",
		"replicas: 5\n":        "replicas",
	} {
		v, err := c.SubmitCampaign(api.CampaignRequest{
			User: "alice", Name: "bad", Nodes: []string{"vriga"}, Minutes: 5, Spec: spec,
		})
		if err != nil {
			t.Fatal(err)
		}
		v = waitFinished(t, c, v.ID)
		if v.State != string(queue.StateFailed) || !strings.Contains(v.Error, key) {
			t.Errorf("spec %q: %s %q, want failed naming %q", spec, v.State, v.Error, key)
		}
	}
	if ids, _ := store.ListExperiments("alice", "bad"); len(ids) != 0 {
		t.Errorf("malformed specs ran: %v", ids)
	}
}

// TestSubmittedSpecIsArchived drives posctl submit -f against the queue: the
// campaign's experiment/campaign.yml parses to the spec the file holds.
func TestSubmittedSpecIsArchived(t *testing.T) {
	addr, store := queueStack(t)
	c := api.NewClient(addr)
	text := "flavor: vpos\nsizes: [64]\nrates: [10000, 20000]\nreplicas: 2\nseed: 5\n"
	file := writeSpec(t, text)
	if out, err := captureStdout(t, func() error {
		return cmdSubmit([]string{"-addr", addr, "-user", "alice", "-name", "sweep",
			"-nodes", "vriga,vtartu", "-f", file})
	}); err != nil {
		t.Fatalf("posctl submit: %v\n%s", err, out)
	}
	views, err := c.Campaigns()
	if err != nil || len(views) != 1 {
		t.Fatalf("campaigns = %v, %v", views, err)
	}
	if v := waitFinished(t, c, views[0].ID); v.State != string(queue.StateDone) {
		t.Fatalf("campaign %s: %s", v.State, v.Error)
	}
	ids, err := store.ListExperiments("alice", "sweep")
	if err != nil || len(ids) != 1 {
		t.Fatalf("experiments = %v, %v", ids, err)
	}
	exp, err := store.OpenExperiment("alice", "sweep", ids[0])
	if err != nil {
		t.Fatal(err)
	}
	archived, err := exp.ReadExperimentArtifact("experiment/campaign.yml")
	if err != nil {
		t.Fatal(err)
	}
	got, err := casestudy.ParseSpec(archived)
	if err != nil {
		t.Fatal(err)
	}
	sent, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want, err := casestudy.ParseSpec(sent)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("archived spec %+v, submitted %+v", got, want)
	}
	if runs, err := exp.Runs(); err != nil || len(runs) != 2 {
		t.Errorf("runs = %v, %v", runs, err)
	}
}

// TestServedVposCampaign walks Appendix A.1 on vpos through the one
// controller: posctl submit -f queues a flavor: vpos campaign on a serving
// controller, and the experiment it files in the served store evaluates,
// checks and publishes like a hardware testbed's, its events/ journal
// beside the results.
func TestServedVposCampaign(t *testing.T) {
	addr, store := queueStack(t)
	c := api.NewClient(addr)
	file := writeSpec(t, "flavor: vpos\nseed: 1\nsizes: [64, 1500]\nrates: [10000, 40000, 150000, 300000]\nruntime: 1\n")
	if out, err := captureStdout(t, func() error {
		return cmdSubmit([]string{"-addr", addr, "-user", "user", "-name", "linux-router-vpos",
			"-nodes", "vriga,vtartu", "-f", file})
	}); err != nil {
		t.Fatalf("posctl submit: %v\n%s", err, out)
	}
	views, err := c.Campaigns()
	if err != nil || len(views) != 1 {
		t.Fatalf("campaigns = %v, %v", views, err)
	}
	if v := waitFinished(t, c, views[0].ID); v.State != string(queue.StateDone) {
		t.Fatalf("campaign %s: %s", v.State, v.Error)
	}
	ids, err := store.ListExperiments("user", "linux-router-vpos")
	if err != nil || len(ids) != 1 {
		t.Fatalf("experiments = %v, %v", ids, err)
	}
	exp, err := store.OpenExperiment("user", "linux-router-vpos", ids[0])
	if err != nil {
		t.Fatal(err)
	}

	runs, err := eval.LoadRuns(exp, "vriga", "moongen.log")
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, r := range runs {
		if r.Failed {
			failed++
		}
	}
	if len(runs) != 8 || failed != 0 {
		t.Errorf("%d runs, %d failed, want 8 and 0", len(runs), failed)
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, s := range series {
		fmt.Fprintf(&got, "%4s B:", s.Name)
		for _, p := range s.Points {
			fmt.Fprintf(&got, "  %.3f→%.3f", p.X, p.Y)
		}
		got.WriteString("\n")
	}
	const want = "1500 B:  0.010→0.010  0.040→0.040  0.150→0.051  0.300→0.052\n" +
		"  64 B:  0.010→0.010  0.040→0.040  0.150→0.063  0.300→0.060\n"
	if got.String() != want {
		t.Errorf("throughput series:\n%s\nwant:\n%s", got.String(), want)
	}

	check, err := publish.Check(exp)
	if err != nil {
		t.Fatal(err)
	}
	if r := string(check.Render()); r != "artifact check: 8 runs inspected, 0 findings\nresult: PUBLISHABLE\n" {
		t.Errorf("publish check:\n%s", r)
	}
	m, err := publish.Release(exp, "user", "linux-router-vpos", filepath.Join(t.TempDir(), "release.tar.gz"))
	if err != nil {
		t.Fatal(err)
	}
	// 8 runs × 6 files, 14 files beside them and the page. One of the 14
	// is the experiment/campaign.yml every launch archives.
	if len(m.Files) != 63 {
		t.Errorf("published %d files, want 63: %v", len(m.Files), m.Files)
	}

	events, err := eventlog.Replay(filepath.Join(exp.Dir(), eventlog.JournalDir))
	if err != nil {
		t.Fatal(err)
	}
	var booted, measured int
	for _, ev := range events {
		switch {
		case ev.Typ != eventlog.TypeProgress:
		case ev.Message == "booting hosts":
			booted++
		case ev.Phase == "measurement":
			measured++
		}
	}
	if booted != 1 || measured != 8 {
		t.Errorf("journal: %d boot and %d measurement events of %d, want 1 and 8", booted, measured, len(events))
	}
}
