package api

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"pos/internal/eventlog"
	"pos/internal/queue"
	"pos/internal/testbed"
)

// rawStatus issues one request outside the typed client, for asserting exact
// HTTP status codes.
func rawStatus(t *testing.T, method, url, body string) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestReleaseStrictIDParse: "12junk" must be a bad request, not allocation
// 12 (the old fmt.Sscanf parse accepted trailing garbage).
func TestReleaseStrictIDParse(t *testing.T) {
	_, c := setup(t)
	a, err := c.Allocate("alice", []string{"vriga"}, 60)
	if err != nil {
		t.Fatal(err)
	}
	url := c.base + "/api/v1/allocations/" + strconv.Itoa(a.ID) + "junk?user=alice"
	if got := rawStatus(t, http.MethodDelete, url, ""); got != http.StatusBadRequest {
		t.Errorf("DELETE with trailing garbage = %d, want 400", got)
	}
	// The allocation the garbage id happened to prefix must survive.
	active, err := c.Allocations()
	if err != nil || len(active) != 1 {
		t.Fatalf("allocation released through a garbage id: %+v, %v", active, err)
	}
	for _, bad := range []string{"junk12", " 12", "12 ", "0x12", ""} {
		url := c.base + "/api/v1/allocations/" + bad + "?user=alice"
		if got := rawStatus(t, http.MethodDelete, url, ""); got != http.StatusBadRequest && got != http.StatusNotFound {
			// "" hits the mux as a missing path segment (404); everything
			// else must be the handler's strict 400.
			t.Errorf("DELETE id %q = %d, want 400", bad, got)
		}
	}
}

// TestAllocateStatusCodes: only a genuine reservation conflict is 409.
func TestAllocateStatusCodes(t *testing.T) {
	_, c := setup(t)
	url := c.base + "/api/v1/allocations"
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown node", `{"user":"u","nodes":["ghost"],"minutes":10}`, http.StatusNotFound},
		{"empty node set", `{"user":"u","nodes":[],"minutes":10}`, http.StatusBadRequest},
		{"duplicate node", `{"user":"u","nodes":["vriga","vriga"],"minutes":10}`, http.StatusBadRequest},
		{"ok", `{"user":"u","nodes":["vriga"],"minutes":10}`, http.StatusCreated},
		{"conflict", `{"user":"v","nodes":["vriga"],"minutes":10}`, http.StatusConflict},
	}
	for _, tc := range cases {
		if got := rawStatus(t, http.MethodPost, url, tc.body); got != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestReleaseStatusCodes: missing allocation 404, someone else's 403.
func TestReleaseStatusCodes(t *testing.T) {
	_, c := setup(t)
	a, err := c.Allocate("alice", []string{"vriga"}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if got := rawStatus(t, http.MethodDelete, c.base+"/api/v1/allocations/999?user=alice", ""); got != http.StatusNotFound {
		t.Errorf("release missing = %d, want 404", got)
	}
	url := c.base + "/api/v1/allocations/" + strconv.Itoa(a.ID)
	if got := rawStatus(t, http.MethodDelete, url+"?user=bob", ""); got != http.StatusForbidden {
		t.Errorf("cross-user release = %d, want 403", got)
	}
	if got := rawStatus(t, http.MethodDelete, url+"?user=alice", ""); got != http.StatusOK {
		t.Errorf("owner release = %d, want 200", got)
	}
}

// TestExpiredAllocationsSwept: an allocation past its End must neither show
// in the listing nor keep occupying the calendar's scan path — the server
// sweeps on its calendar endpoints (regression for the Expire-never-called
// leak).
func TestExpiredAllocationsSwept(t *testing.T) {
	tb, c := setup(t)
	now := time.Now()
	if _, err := tb.Calendar.Allocate("alice", []string{"vriga"},
		now.Add(-2*time.Hour), now.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if tb.Calendar.Size() != 1 {
		t.Fatalf("seed allocation missing: Size = %d", tb.Calendar.Size())
	}
	active, err := c.Allocations()
	if err != nil || len(active) != 0 {
		t.Errorf("ended allocation listed: %+v, %v", active, err)
	}
	if tb.Calendar.Size() != 0 {
		t.Errorf("ended allocation survived the listing sweep: Size = %d", tb.Calendar.Size())
	}
	// And the allocate path sweeps too: a dead reservation must not block.
	if _, err := tb.Calendar.Allocate("alice", []string{"vtartu"},
		now.Add(-2*time.Hour), now.Add(-time.Hour)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate("bob", []string{"vtartu"}, 30); err != nil {
		t.Errorf("allocate blocked by an expired reservation: %v", err)
	}
}

// queueSetup wires a campaign queue into a served testbed. Submissions with
// Spec "block" hold their node until cancelled; the spec reaches the launcher
// as sent.
func queueSetup(t *testing.T) (*testbed.Testbed, *Client, *queue.Controller) {
	t.Helper()
	tb := testbed.New()
	t.Cleanup(tb.Close)
	for _, n := range []string{"vriga", "vtartu"} {
		if _, err := tb.AddNode(n); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	launch := func(ctx context.Context, sub queue.Submission, ev *eventlog.Pipeline) error {
		if sub.Spec == "block" {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
	q, err := queue.Open(queue.Config{
		Dir:           t.TempDir(),
		Calendar:      tb.Calendar,
		Launch:        launch,
		SweepInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	srv.SetQueue(q)
	return tb, NewClient(srv.Addr()), q
}

func waitCampaign(t *testing.T, c *Client, id int, want string) CampaignView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, err := c.Campaign(id)
		if err != nil {
			t.Fatalf("Campaign(%d): %v", id, err)
		}
		if v.State == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := c.Campaign(id)
	t.Fatalf("campaign %d stuck in %s, want %s", id, v.State, want)
	return CampaignView{}
}

func TestCampaignQueueOverHTTP(t *testing.T) {
	_, c, _ := queueSetup(t)

	// Two tenants contending for one node: the first runs, the second queues.
	first, err := c.SubmitCampaign(CampaignRequest{
		User: "alice", Name: "hold", Nodes: []string{"vriga"}, Minutes: 30,
		Spec: "block",
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, c, first.ID, "running")
	second, err := c.SubmitCampaign(CampaignRequest{
		User: "bob", Name: "wait", Nodes: []string{"vriga"}, Minutes: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	all, err := c.Campaigns()
	if err != nil || len(all) != 2 {
		t.Fatalf("Campaigns = %+v, %v", all, err)
	}
	if all[1].State != "queued" || all[1].Position != 1 {
		t.Errorf("second campaign = %+v", all[1])
	}
	// The held allocation is visible through the allocations endpoint.
	active, err := c.Allocations()
	if err != nil || len(active) != 1 || active[0].User != "alice" {
		t.Errorf("allocations while running = %+v, %v", active, err)
	}

	// Authorization on cancel.
	if _, err := c.CancelCampaign("mallory", second.ID); err == nil {
		t.Error("cross-user cancel accepted")
	}
	if got := rawStatus(t, http.MethodDelete,
		c.base+"/api/v1/campaigns/abc?user=bob", ""); got != http.StatusBadRequest {
		t.Errorf("cancel with bad id = %d, want 400", got)
	}
	if _, err := c.Campaign(999); err == nil {
		t.Error("got a missing campaign")
	}

	// Cancel the queued one, then preempt the running one; the node frees.
	if _, err := c.CancelCampaign("bob", second.ID); err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, c, second.ID, "cancelled")
	if _, err := c.CancelCampaign("alice", first.ID); err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, c, first.ID, "cancelled")

	third, err := c.SubmitCampaign(CampaignRequest{
		User: "carol", Name: "go", Nodes: []string{"vriga"}, Minutes: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCampaign(t, c, third.ID, "done")
}

func TestCampaignEndpointsWithoutQueue(t *testing.T) {
	_, c := setup(t)
	if _, err := c.Campaigns(); err == nil || !strings.Contains(err.Error(), "no campaign queue") {
		t.Errorf("campaigns without queue = %v", err)
	}
	if got := rawStatus(t, http.MethodPost, c.base+"/api/v1/campaigns",
		`{"user":"u","nodes":["vriga"],"minutes":5}`); got != http.StatusNotFound {
		t.Errorf("submit without queue = %d, want 404", got)
	}
}

func TestCampaignSubmitValidation(t *testing.T) {
	_, c, _ := queueSetup(t)
	if _, err := c.SubmitCampaign(CampaignRequest{Nodes: []string{"vriga"}, Minutes: 5}); err == nil {
		t.Error("submission without user accepted")
	}
	if got := rawStatus(t, http.MethodPost, c.base+"/api/v1/campaigns", `{notjson`); got != http.StatusBadRequest {
		t.Errorf("malformed submit = %d, want 400", got)
	}
}
