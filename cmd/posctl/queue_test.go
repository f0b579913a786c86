package main

import (
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"pos/internal/api"
	"pos/internal/casestudy"
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
