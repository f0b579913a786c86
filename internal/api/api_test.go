package api

import (
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pos/internal/image"
	"pos/internal/node"
	"pos/internal/results"
	"pos/internal/testbed"
)

func setup(t *testing.T) (*testbed.Testbed, *Client) {
	t.Helper()
	tb := testbed.New()
	t.Cleanup(tb.Close)
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		t.Fatal(err)
	}
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
	return tb, NewClient(srv.Addr())
}

func TestListAndGetNodes(t *testing.T) {
	_, c := setup(t)
	nodes, err := c.Nodes()
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].Name != "vriga" || nodes[0].State != "off" {
		t.Errorf("nodes = %+v", nodes)
	}
	n, err := c.Node("vtartu")
	if err != nil || n.Name != "vtartu" {
		t.Errorf("node = %+v, %v", n, err)
	}
	if _, err := c.Node("ghost"); err == nil {
		t.Error("got a missing node")
	}
}

func TestBootCycleOverHTTP(t *testing.T) {
	_, c := setup(t)
	if err := c.SetBoot("vriga", "debian-buster", map[string]string{"hugepages": "8"}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Power("vriga", "on")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "running" || st.Boots != 1 {
		t.Errorf("status = %+v", st)
	}
	res, err := c.Exec("vriga", "echo booted with $BOOT_hugepages", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "booted with 8") {
		t.Errorf("output = %q", res.Output)
	}
	st, err = c.Power("vriga", "off")
	if err != nil || st.State != "off" {
		t.Errorf("off: %+v, %v", st, err)
	}
}

func TestSetBootRejectsUnknownImage(t *testing.T) {
	_, c := setup(t)
	if err := c.SetBoot("vriga", "no-such-image", nil); err == nil {
		t.Error("unknown image accepted")
	}
}

func TestPowerValidation(t *testing.T) {
	_, c := setup(t)
	if _, err := c.Power("vriga", "explode"); err == nil {
		t.Error("unknown power op accepted")
	}
	// Power on without image selected.
	if _, err := c.Power("vriga", "on"); err == nil {
		t.Error("power on without image succeeded")
	}
}

func TestExecErrorsCarryOutput(t *testing.T) {
	_, c := setup(t)
	if err := c.SetBoot("vriga", "debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Power("vriga", "on"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("vriga", "echo partial\nexit 3", nil)
	if err == nil {
		t.Fatal("non-zero exit not reported")
	}
	if res.ExitCode != 3 || !strings.Contains(res.Output, "partial") {
		t.Errorf("res = %+v", res)
	}
	// Exec on a powered-off node.
	if _, err := c.Power("vriga", "off"); err != nil {
		t.Fatal(err)
	}
	res, err = c.Exec("vriga", "echo hi", nil)
	if err == nil || res.ExitCode != -1 {
		t.Errorf("powered-off exec: %+v, %v", res, err)
	}
}

func TestImagesEndpoint(t *testing.T) {
	_, c := setup(t)
	imgs, err := c.Images()
	if err != nil || len(imgs) != 1 || !strings.HasPrefix(imgs[0], "debian-buster@") {
		t.Errorf("images = %v, %v", imgs, err)
	}
}

func TestAllocationLifecycle(t *testing.T) {
	_, c := setup(t)
	a, err := c.Allocate("alice", []string{"vriga", "vtartu"}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == 0 || a.User != "alice" || len(a.Nodes) != 2 {
		t.Errorf("allocation = %+v", a)
	}
	// Conflicting allocation refused.
	if _, err := c.Allocate("bob", []string{"vriga"}, 30); err == nil {
		t.Error("conflicting allocation accepted")
	}
	active, err := c.Allocations()
	if err != nil || len(active) != 1 {
		t.Errorf("active = %+v, %v", active, err)
	}
	// Wrong user cannot release.
	if err := c.Release("bob", a.ID); err == nil {
		t.Error("cross-user release succeeded")
	}
	if err := c.Release("alice", a.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Allocate("bob", []string{"vriga"}, 30); err != nil {
		t.Errorf("allocation after release failed: %v", err)
	}
}

func TestAllocationValidation(t *testing.T) {
	_, c := setup(t)
	if _, err := c.Allocate("u", []string{"vriga"}, 0); err == nil {
		t.Error("zero-minute allocation accepted")
	}
	if _, err := c.Allocate("u", []string{"ghost"}, 10); err == nil {
		t.Error("unknown node allocation accepted")
	}
}

func TestFullRemoteExperimentControl(t *testing.T) {
	// Drive the whole node lifecycle purely over HTTP, the way a remote
	// experiment script would.
	_, c := setup(t)
	if _, err := c.Allocate("user", []string{"vtartu"}, 10); err != nil {
		t.Fatal(err)
	}
	if err := c.SetBoot("vtartu", "debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Power("vtartu", "reset"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("vtartu", "set PORT eno1\necho port=$PORT on $HOSTNAME", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "port=eno1 on vtartu") {
		t.Errorf("output = %q", res.Output)
	}
}

func TestResultsEndpoints(t *testing.T) {
	tb := testbed.New()
	t.Cleanup(tb.Close)
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := NewClient(srv.Addr())

	// Without a store attached, results endpoints 404.
	if _, err := c.Results("user", "exp"); err == nil {
		t.Error("results without store succeeded")
	}

	store, err := results.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv.SetResults(store)
	exp, err := store.CreateExperiment("user", "exp", time.Now())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { exp.Sync() })
	if err := exp.WriteRunMeta(results.RunMeta{Run: 0, LoopVars: map[string]string{"pkt_sz": "64"}}); err != nil {
		t.Fatal(err)
	}
	if err := exp.AddRunArtifact(0, "vriga", "moongen.log", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := exp.WriteRunMeta(results.RunMeta{Run: 1, Failed: true, Error: "boom"}); err != nil {
		t.Fatal(err)
	}

	ids, err := c.Results("user", "exp")
	if err != nil || len(ids) != 1 || ids[0] != exp.ID() {
		t.Fatalf("ids = %v, %v", ids, err)
	}
	// Missing experiment name yields an empty list, not an error.
	empty, err := c.Results("user", "nothing")
	if err != nil || len(empty) != 0 {
		t.Errorf("empty = %v, %v", empty, err)
	}
	runs, err := c.Runs("user", "exp", exp.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].LoopVars["pkt_sz"] != "64" || len(runs[0].Artifacts) != 1 || runs[0].Artifacts[0] != "vriga/moongen.log" {
		t.Errorf("run 0 = %+v", runs[0])
	}
	if !runs[1].Failed || runs[1].Error != "boom" {
		t.Errorf("run 1 = %+v", runs[1])
	}
	if _, err := c.Runs("user", "exp", "nope"); err == nil {
		t.Error("missing execution id succeeded")
	}
}

// TestResultsPathsStayInsideStore: the mux decodes %2F inside {user}, so a
// path segment can carry a traversal. The store refuses it: listing answers
// 400, and no request lists, sweeps or reads anything outside the store root
// or inside its dot directories.
func TestResultsPathsStayInsideStore(t *testing.T) {
	tb := testbed.New()
	t.Cleanup(tb.Close)
	srv, err := Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	parent := t.TempDir()
	store, err := results.NewStore(filepath.Join(parent, "store"))
	if err != nil {
		t.Fatal(err)
	}
	srv.SetResults(store)
	victim := filepath.Join(parent, "outside", "exp", "id1", ".tmp-victim")
	if err := os.MkdirAll(filepath.Dir(victim), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(victim, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(store.Root(), ".posblob", "sha256", "ab"), 0o755); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]int{
		"/api/v1/results/..%2Foutside/exp":          http.StatusBadRequest,
		"/api/v1/results/.posblob/sha256":           http.StatusBadRequest,
		"/api/v1/results/..%2Foutside/exp/id1/runs": http.StatusNotFound,
	} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d %s, want %d", path, resp.StatusCode, body, want)
		}
	}
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("a results request swept a file outside the store: %v", err)
	}
}

// TestExecBudgetOutlivesClientBaseline: an exec whose server-side budget
// exceeds the client's baseline deadline must not be cut down by the HTTP
// transport — the request deadline follows the budget. With the old fixed
// http.Client{Timeout: ...} this request died at the baseline.
func TestExecBudgetOutlivesClientBaseline(t *testing.T) {
	tb, c := setup(t)
	c.SetTimeout(50 * time.Millisecond)
	if err := c.SetBoot("vriga", "debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Power("vriga", "on"); err != nil {
		t.Fatal(err)
	}
	h, err := tb.Handle("vriga")
	if err != nil {
		t.Fatal(err)
	}
	err = h.Node.RegisterCommand("slow", func(ctx context.Context, _ *node.Node, _ []string, stdout, _ node.ErrWriter) error {
		select {
		case <-time.After(150 * time.Millisecond):
			stdout.Write([]byte("survived\n"))
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// 150ms of work under a 500ms budget and a 50ms baseline: succeeds.
	res, err := c.ExecContext(context.Background(), "vriga", "slow", nil, 500*time.Millisecond)
	if err != nil {
		t.Fatalf("budgeted exec cut down: %v", err)
	}
	if !strings.Contains(res.Output, "survived") {
		t.Errorf("output = %q", res.Output)
	}

	// The same work under the bare baseline dies at the transport — the
	// capped behaviour a budget exists to avoid.
	if _, err := c.Exec("vriga", "slow", nil); err == nil {
		t.Error("50ms-baseline exec of 150ms work succeeded")
	}

	// A budget below the work time is enforced server-side: the server
	// reports the kill, and the response still reaches the client because
	// the transport deadline outlives the budget.
	res, err = c.ExecContext(context.Background(), "vriga", "slow", nil, 60*time.Millisecond)
	if err == nil {
		t.Fatal("over-budget exec succeeded")
	}
	if !strings.Contains(res.Output, "deadline exceeded") {
		t.Errorf("err = %v, resp = %+v, want server-side deadline kill", err, res)
	}
}

// TestExecContextCancellation: the caller's context aborts the request.
func TestExecContextCancellation(t *testing.T) {
	_, c := setup(t)
	if err := c.SetBoot("vriga", "debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Power("vriga", "on"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.ExecContext(ctx, "vriga", "echo hi", nil, time.Second); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestMetricsEndpointServesPrometheusText: GET /metrics serves valid
// Prometheus text exposition — parse it line by line over real HTTP.
func TestMetricsEndpointServesPrometheusText(t *testing.T) {
	_, c := setup(t)
	// Generate traffic so the api families have samples: one 200 and one 404.
	if _, err := c.Nodes(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node("ghost"); err == nil {
		t.Fatal("missing node succeeded")
	}

	resp, err := http.Get("http://" + c.base[len("http://"):] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	// Label values may themselves contain braces (route patterns like
	// {name}), so the label block match is greedy to the final brace.
	sampleRe := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? (NaN|[-+]?[0-9.eE+-]+|[-+]Inf)$`)
	typed := map[string]string{}
	var samples int
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			typed[fields[2]] = fields[3]
		default:
			if !sampleRe.MatchString(line) {
				t.Fatalf("line %d: malformed sample: %q", i+1, line)
			}
			samples++
		}
	}
	if samples == 0 {
		t.Fatal("no samples exposed")
	}
	if typed["pos_api_requests_total"] != "counter" {
		t.Errorf("pos_api_requests_total type = %q", typed["pos_api_requests_total"])
	}
	if typed["pos_api_request_seconds"] != "histogram" {
		t.Errorf("pos_api_request_seconds type = %q", typed["pos_api_request_seconds"])
	}
	text := string(body)
	for _, want := range []string{
		`pos_api_requests_total{endpoint="GET /api/v1/nodes",code="200"}`,
		`pos_api_requests_total{endpoint="GET /api/v1/nodes/{name}",code="404"}`,
		`pos_api_request_seconds_bucket{endpoint="GET /api/v1/nodes",le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestMetricsJSONSnapshot: GET /api/v1/metrics is a decodable structured
// snapshot carrying the per-endpoint counters.
func TestMetricsJSONSnapshot(t *testing.T) {
	_, c := setup(t)
	if _, err := c.Nodes(); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, m := range snap.Metrics {
		if m.Name != "pos_api_requests_total" {
			continue
		}
		for _, v := range m.Values {
			if v.Labels["endpoint"] == "GET /api/v1/nodes" && v.Labels["code"] == "200" && v.Value >= 1 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("snapshot missing GET /api/v1/nodes sample: %+v", snap.Metrics)
	}
}

// TestDebugPprofBehindOption: pprof mounts only when WithDebug is given.
func TestDebugPprofBehindOption(t *testing.T) {
	tb := testbed.New()
	t.Cleanup(tb.Close)

	plain, err := Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })
	resp, err := http.Get("http://" + plain.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without WithDebug: HTTP %d", resp.StatusCode)
	}

	debug, err := Serve(tb, WithDebug())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { debug.Close() })
	resp, err = http.Get("http://" + debug.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with WithDebug: HTTP %d", resp.StatusCode)
	}
}

// TestShutdownDrainsInflightHandlers: Shutdown refuses new connections but
// lets a handler already executing finish.
func TestShutdownDrainsInflightHandlers(t *testing.T) {
	tb := testbed.New()
	t.Cleanup(tb.Close)
	if err := tb.Images.Add(image.DefaultDebianBuster()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.AddNode("vriga"); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(tb)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(srv.Addr())
	if err := c.SetBoot("vriga", "debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Power("vriga", "on"); err != nil {
		t.Fatal(err)
	}
	h, err := tb.Handle("vriga")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	err = h.Node.RegisterCommand("slow", func(ctx context.Context, _ *node.Node, _ []string, stdout, _ node.ErrWriter) error {
		close(started)
		select {
		case <-time.After(100 * time.Millisecond):
			stdout.Write([]byte("drained\n"))
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	type execResult struct {
		res ExecResponse
		err error
	}
	done := make(chan execResult, 1)
	go func() {
		res, err := c.Exec("vriga", "slow", nil)
		done <- execResult{res, err}
	}()
	<-started

	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-done
	if r.err != nil {
		t.Fatalf("in-flight exec killed by shutdown: %v", r.err)
	}
	if !strings.Contains(r.res.Output, "drained") {
		t.Errorf("output = %q", r.res.Output)
	}
	// The listener is closed: new requests fail.
	if _, err := c.Nodes(); err == nil {
		t.Error("request after shutdown succeeded")
	}
}
