package hosttools

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"pos/internal/image"
	"pos/internal/node"
	"pos/internal/telemetry"
)

type memUploads struct {
	mu   sync.Mutex
	got  map[string][]byte // key: node/artifact
	errs int
}

func (m *memUploads) Upload(nodeName, artifact string, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.got == nil {
		m.got = make(map[string][]byte)
	}
	m.got[nodeName+"/"+artifact] = append([]byte(nil), data...)
	return nil
}

func newHost(t *testing.T, name string, svc *Service) *node.Node {
	t.Helper()
	store := image.NewStore()
	if err := store.Add(image.DefaultDebianBuster()); err != nil {
		t.Fatal(err)
	}
	n := node.New(name, store)
	n.BootDelay = 0
	if err := n.SetBoot("debian-buster", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.PowerOn(); err != nil {
		t.Fatal(err)
	}
	if err := Install(n, svc); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestVarsAcrossScopesAndHosts(t *testing.T) {
	svc := NewService(nil)
	dut := newHost(t, "dut", svc)
	lg := newHost(t, "loadgen", svc)

	// DuT publishes a global var; LoadGen reads it.
	if _, err := dut.Exec(context.Background(), "pos_set_var global dut_mac 02:00:00:00:00:02", nil); err != nil {
		t.Fatal(err)
	}
	out, err := lg.Exec(context.Background(), "pos_get_var global dut_mac", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "02:00:00:00:00:02") {
		t.Errorf("output = %q", out)
	}

	// Local scope resolves to the calling node's name.
	if _, err := dut.Exec(context.Background(), "pos_set_var local port eno1", nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := svc.GetVar("dut", "port"); !ok || v != "eno1" {
		t.Errorf("local var = %q ok=%v", v, ok)
	}
	// The other host's local scope stays empty.
	if _, err := lg.Exec(context.Background(), "pos_get_var local port", nil); err == nil {
		t.Error("read of another host's local var succeeded")
	}
}

func TestGetUnsetVarFails(t *testing.T) {
	svc := NewService(nil)
	h := newHost(t, "h", svc)
	if _, err := h.Exec(context.Background(), "pos_get_var loop nope", nil); err == nil {
		t.Error("unset var read succeeded")
	}
}

func TestClearScope(t *testing.T) {
	svc := NewService(nil)
	svc.SetVar(ScopeLoop, "pkt_sz", "64")
	svc.ClearScope(ScopeLoop)
	if _, ok := svc.GetVar(ScopeLoop, "pkt_sz"); ok {
		t.Error("var survived ClearScope")
	}
}

func TestBarrierSynchronizesHosts(t *testing.T) {
	svc := NewService(nil)
	dut := newHost(t, "dut", svc)
	lg := newHost(t, "loadgen", svc)

	var order []string
	var mu sync.Mutex
	record := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		record("dut-before")
		if _, err := dut.Exec(context.Background(), "pos_sync setup_done 2", nil); err != nil {
			t.Errorf("dut barrier: %v", err)
		}
		record("dut-after")
	}()
	go func() {
		defer wg.Done()
		time.Sleep(20 * time.Millisecond)
		record("lg-before")
		if _, err := lg.Exec(context.Background(), "pos_sync setup_done 2", nil); err != nil {
			t.Errorf("lg barrier: %v", err)
		}
		record("lg-after")
	}()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	// Both "after"s must come after both "before"s.
	pos := map[string]int{}
	for i, s := range order {
		pos[s] = i
	}
	if pos["dut-after"] < pos["lg-before"] {
		t.Errorf("barrier did not hold: %v", order)
	}
}

func TestBarrierReusable(t *testing.T) {
	svc := NewService(nil)
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = svc.Barrier(context.Background(), "measure", 2)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d waiter %d: %v", round, i, err)
			}
		}
	}
}

func TestBarrierTimeout(t *testing.T) {
	svc := NewService(nil)
	svc.BarrierTimeout = 20 * time.Millisecond
	start := time.Now()
	err := svc.Barrier(context.Background(), "lonely", 2)
	if err != ErrBarrierTimeout {
		t.Errorf("err = %v, want timeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("timeout too slow")
	}
}

// TestBarrierTimeoutWithdrawsArrival: a waiter that times out must not stay
// counted, or the next wave at the same barrier releases with fewer real
// participants than parties — the ghost-arrival leak.
func TestBarrierTimeoutWithdrawsArrival(t *testing.T) {
	svc := NewService(nil)
	svc.BarrierTimeout = 20 * time.Millisecond

	// First wave: a lone waiter times out, leaving (pre-fix) a ghost
	// arrival behind.
	if err := svc.Barrier(context.Background(), "wave", 2); err != ErrBarrierTimeout {
		t.Fatalf("lone waiter: err = %v, want timeout", err)
	}

	// Second wave, still alone: with the ghost counted, this waiter would
	// release instantly as the "second" participant. It must time out.
	if err := svc.Barrier(context.Background(), "wave", 2); err != ErrBarrierTimeout {
		t.Fatalf("post-timeout lone waiter released by ghost arrival: err = %v", err)
	}

	// Third wave with two real participants still works.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = svc.Barrier(context.Background(), "wave", 2)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("waiter %d: %v", i, err)
		}
	}
}

// TestScopeAbortReleasesWaiters: aborting a run scope wakes the node already
// waiting in it and fails a later arrival at once, both with the cause. Other
// scopes' barriers are untouched, and a fresh scope with the same id (a
// retried run) synchronizes normally: the woken waiter left no ghost arrival.
func TestScopeAbortReleasesWaiters(t *testing.T) {
	svc := NewService(nil)
	svc.BarrierTimeout = time.Minute
	run := svc.NewScope("run1", nil)
	run.Bind("a", "b")
	other := svc.NewScope("run2", nil)
	other.Bind("c", "d")

	waited := make(chan error, 1)
	go func() { waited <- svc.BarrierAs(context.Background(), "a", "run_done", 2) }()
	// Abort only once the waiter is counted, so the wake-up is what is
	// tested rather than the check on arrival.
	for arrived := 0; arrived == 0; {
		svc.mu.Lock()
		b := svc.barriers["run1\x00run_done"]
		svc.mu.Unlock()
		if b != nil {
			b.mu.Lock()
			arrived = b.arrived
			b.mu.Unlock()
		}
		runtime.Gosched()
	}
	cause := errors.New("b: injected exec fault")
	run.Abort(cause)
	run.Abort(errors.New("second cause is ignored"))
	select {
	case err := <-waited:
		if !errors.Is(err, cause) {
			t.Fatalf("woken waiter: err = %v, want %v", err, cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abort did not wake the waiting node")
	}
	if err := svc.BarrierAs(context.Background(), "b", "run_done", 2); !errors.Is(err, cause) {
		t.Fatalf("late arrival: err = %v, want %v", err, cause)
	}

	syncPair := func(x, y string) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, n := range []string{x, y} {
			wg.Add(1)
			go func(i int, n string) {
				defer wg.Done()
				errs[i] = svc.BarrierAs(context.Background(), n, "run_done", 2)
			}(i, n)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("%s/%s waiter %d: %v", x, y, i, err)
			}
		}
	}
	syncPair("c", "d")
	retry := svc.NewScope("run1", nil)
	retry.Bind("a", "b")
	syncPair("a", "b")
}

func TestUploadHookScreensUploads(t *testing.T) {
	up := &memUploads{}
	svc := NewService(up)
	calls := 0
	svc.SetUploadHook(func(nodeName, artifact string) error {
		calls++
		if calls == 1 {
			return ErrBarrierTimeout // any error: upload refused
		}
		return nil
	})
	if err := svc.Upload("n1", "a.log", []byte("x")); err == nil {
		t.Fatal("hooked upload not refused")
	}
	if err := svc.Upload("n1", "a.log", []byte("y")); err != nil {
		t.Fatalf("second upload: %v", err)
	}
	if string(up.got["n1/a.log"]) != "y" {
		t.Errorf("uploads = %v", up.got)
	}
	svc.SetUploadHook(nil)
	if err := svc.Upload("n1", "b.log", []byte("z")); err != nil {
		t.Fatalf("after hook removal: %v", err)
	}
}

// A refused upload fails only the call that made it. For a straggler, a node
// whose run scope has closed, that is no run at all, so
// pos_hosttools_uploads_refused_total is the refusal's only trace. Each way
// of refusing counts once: a closed scope, a hook veto, an uploader error.
func TestRefusedUploadsCounted(t *testing.T) {
	refused := func() float64 {
		v, _ := telemetry.Default.Total("pos_hosttools_uploads_refused_total")
		return v
	}
	before := refused()
	svc := NewService(nil)
	sc := svc.NewScope("run1", &memUploads{})
	sc.Bind("n1")
	if err := svc.Upload("n1", "a.log", []byte("x")); err != nil {
		t.Fatal(err)
	}
	sc.Close()
	if err := svc.Upload("n1", "a.log", []byte("late")); err == nil {
		t.Fatal("straggler upload accepted after its scope closed")
	}
	svc.SetUploadHook(func(string, string) error { return errors.New("veto") })
	if err := svc.Upload("n1", "b.log", nil); err == nil {
		t.Fatal("vetoed upload accepted")
	}
	svc.SetUploadHook(nil)
	svc.NewScope("run2", UploaderFunc(func(string, string, []byte) error {
		return errors.New("disk full")
	})).Bind("n1")
	if err := svc.Upload("n1", "c.log", nil); err == nil {
		t.Fatal("failed upload reported as accepted")
	}
	if got := refused() - before; got != 3 {
		t.Errorf("pos_hosttools_uploads_refused_total rose by %v, want 3", got)
	}
}

func TestBarrierPartyMismatch(t *testing.T) {
	svc := NewService(nil)
	svc.BarrierTimeout = 10 * time.Millisecond
	go svc.Barrier(context.Background(), "b", 2)
	time.Sleep(5 * time.Millisecond)
	if err := svc.Barrier(context.Background(), "b", 3); err == nil || err == ErrBarrierTimeout {
		t.Errorf("party mismatch: err = %v, want explicit mismatch error", err)
	}
	if err := svc.Barrier(context.Background(), "x", 0); err == nil {
		t.Error("accepted parties=0")
	}
}

func TestUploadFromScript(t *testing.T) {
	up := &memUploads{}
	svc := NewService(up)
	h := newHost(t, "dut", svc)
	if _, err := h.Exec(context.Background(), "pos_upload notes measurement went fine", nil); err != nil {
		t.Fatal(err)
	}
	if got := string(up.got["dut/notes"]); got != "measurement went fine" {
		t.Errorf("upload = %q", got)
	}
}

func TestUploadFile(t *testing.T) {
	up := &memUploads{}
	svc := NewService(up)
	h := newHost(t, "dut", svc)
	script := `
write /tmp/out.log line one
pos_upload_file out.log /tmp/out.log
`
	if _, err := h.Exec(context.Background(), script, nil); err != nil {
		t.Fatal(err)
	}
	if got := string(up.got["dut/out.log"]); got != "line one" {
		t.Errorf("upload = %q", got)
	}
	if _, err := h.Exec(context.Background(), "pos_upload_file x /missing", nil); err == nil {
		t.Error("upload of missing file succeeded")
	}
}

func TestUploadWithoutUploaderFails(t *testing.T) {
	svc := NewService(nil)
	h := newHost(t, "dut", svc)
	if _, err := h.Exec(context.Background(), "pos_upload x y", nil); err == nil {
		t.Error("upload without uploader succeeded")
	}
}

func TestPosRunCapturesAndUploads(t *testing.T) {
	up := &memUploads{}
	svc := NewService(up)
	h := newHost(t, "loadgen", svc)
	err := h.RegisterCommand("moongen", func(_ context.Context, _ *node.Node, args []string, stdout, _ node.ErrWriter) error {
		stdout.Write([]byte("[Device: id=0] TX: 1.0 Mpps\n"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Exec(context.Background(), "pos_run moongen.log moongen --rate 1000", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Output is both echoed to the script log and uploaded.
	if !strings.Contains(out, "TX: 1.0 Mpps") {
		t.Errorf("script output = %q", out)
	}
	if got := string(up.got["loadgen/moongen.log"]); !strings.Contains(got, "TX: 1.0 Mpps") {
		t.Errorf("uploaded = %q", got)
	}
}

func TestPosRunUnknownCommand(t *testing.T) {
	svc := NewService(&memUploads{})
	h := newHost(t, "h", svc)
	if _, err := h.Exec(context.Background(), "pos_run log nosuch", nil); err == nil {
		t.Error("pos_run of unknown command succeeded")
	}
}

func TestPosRunUploadsEvenOnFailure(t *testing.T) {
	up := &memUploads{}
	svc := NewService(up)
	h := newHost(t, "h", svc)
	h.RegisterCommand("flaky", func(_ context.Context, _ *node.Node, _ []string, stdout, _ node.ErrWriter) error {
		stdout.Write([]byte("partial output\n"))
		return context.DeadlineExceeded
	})
	if _, err := h.Exec(context.Background(), "pos_run flaky.log flaky", nil); err == nil {
		t.Fatal("failing command not reported")
	}
	if got := string(up.got["h/flaky.log"]); !strings.Contains(got, "partial output") {
		t.Errorf("failure output not uploaded: %q", got)
	}
}

func TestToolsGoneAfterReboot(t *testing.T) {
	svc := NewService(nil)
	h := newHost(t, "h", svc)
	if err := h.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Exec(context.Background(), "pos_get_var global x", nil); err == nil {
		t.Error("pos tools survived a reboot — live-boot must wipe them")
	}
	// Reinstall works.
	if err := Install(h, svc); err != nil {
		t.Fatal(err)
	}
}
