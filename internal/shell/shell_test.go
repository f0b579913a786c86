package shell

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"pos/internal/image"
	"pos/internal/node"
)

func setup(t *testing.T) (*node.Node, *Client) {
	t.Helper()
	store := image.NewStore()
	if err := store.Add(image.DefaultDebianBuster()); err != nil {
		t.Fatal(err)
	}
	n := node.New("vriga", store)
	n.BootDelay = 0
	if err := n.SetBoot("debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.PowerOn(); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return n, c
}

func TestExecCapturesOutput(t *testing.T) {
	_, c := setup(t)
	res, err := c.Exec("echo setup $ROLE\nhostname", map[string]string{"ROLE": "loadgen"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Errorf("exit = %d", res.ExitCode)
	}
	if !strings.Contains(res.Output, "setup loadgen") || !strings.Contains(res.Output, "vriga") {
		t.Errorf("output = %q", res.Output)
	}
}

func TestExecNonZeroExit(t *testing.T) {
	_, c := setup(t)
	res, err := c.Exec("exit 3", nil)
	if err == nil {
		t.Fatal("non-zero exit reported as success")
	}
	if res.ExitCode != 3 {
		t.Errorf("exit = %d, want 3", res.ExitCode)
	}
}

func TestExecFailureKeepsOutput(t *testing.T) {
	_, c := setup(t)
	res, err := c.Exec("echo started\nfail broken", nil)
	if err == nil {
		t.Fatal("failure not reported")
	}
	if !strings.Contains(res.Output, "started") {
		t.Errorf("output lost on failure: %q", res.Output)
	}
}

func TestExecOnWedgedNodeFails(t *testing.T) {
	n, c := setup(t)
	n.Wedge()
	res, err := c.Exec("echo hi", nil)
	if err == nil {
		t.Fatal("exec on wedged node succeeded")
	}
	if res.ExitCode != -1 {
		t.Errorf("exit = %d, want -1 transport failure", res.ExitCode)
	}
}

func TestExecTimeout(t *testing.T) {
	_, c := setup(t)
	start := time.Now()
	_, err := c.ExecTimeout("sleep_ms 60000", nil, 20*time.Millisecond)
	if err == nil {
		t.Fatal("timeout did not fire")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout took too long")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	_, c := setup(t)
	payload := []byte("loop_var: [64, 1500]\n")
	if err := c.Put("/root/loop-variables.yml", payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("/root/loop-variables.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("got %q", got)
	}
}

func TestGetMissingFile(t *testing.T) {
	_, c := setup(t)
	if _, err := c.Get("/nope"); err == nil {
		t.Error("Get of missing file succeeded")
	}
}

func TestSetenvVisibleToScripts(t *testing.T) {
	_, c := setup(t)
	if err := c.Setenv("PORT", "eno1"); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("echo port=$PORT", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "port=eno1") {
		t.Errorf("output = %q", res.Output)
	}
}

func TestPutToPoweredOffNodeFails(t *testing.T) {
	n, c := setup(t)
	n.PowerOff()
	if err := c.Put("/x", []byte("y")); err == nil {
		t.Error("Put to powered-off node succeeded")
	}
}

func TestExecRegisteredCommandOverShell(t *testing.T) {
	n, c := setup(t)
	err := n.RegisterCommand("ip", func(_ context.Context, _ *node.Node, args []string, stdout, _ node.ErrWriter) error {
		stdout.Write([]byte("ip " + strings.Join(args, " ") + " ok\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec("ip link set $PORT up", map[string]string{"PORT": "eno1"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "ip link set eno1 up ok") {
		t.Errorf("output = %q", res.Output)
	}
}

func TestTwoClientsSameNode(t *testing.T) {
	n, c1 := setup(t)
	srv, err := Serve(n)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c1.Setenv("A", "1"); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Exec("echo $A", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "1") {
		t.Errorf("state not shared across connections: %q", res.Output)
	}
}

// execRoundTripAllocBudget is 15 % above the 40 objects one exec round trip
// allocated when the budget was set (go1.24, GOMAXPROCS 2, on top of
// 7e9ddda). The count covers both goroutines, client and daemon, over
// loopback TCP: a request with nine variables and its response. With both
// frames decoded by encoding/json, as at 7e9ddda, the same exec costs 62.
const execRoundTripAllocBudget = 46

func TestExecRoundTripAllocations(t *testing.T) {
	_, c := setup(t)
	env := map[string]string{}
	for _, k := range []string{"pkt_sz", "pkt_rate", "duration", "run", "port_a", "port_b", "dut", "mode", "seed"} {
		env[k] = "value of " + k
	}
	script := "echo measured $pkt_sz\n"
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := c.Exec(script, env); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one exec round trip: %.0f allocations (budget %d)", allocs, execRoundTripAllocBudget)
	if allocs > execRoundTripAllocBudget {
		t.Errorf("one exec round trip allocates %.0f objects, budget %d", allocs, execRoundTripAllocBudget)
	}
}
