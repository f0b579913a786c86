package eventlog

import (
	"context"
	"testing"
	"time"

	"pos/internal/telemetry"
)

func TestForwardTo(t *testing.T) {
	src := NewPipeline()
	dst := NewPipeline()
	sub := dst.Subscribe(16)
	defer sub.Close()

	stop := src.ForwardTo(dst, func(ev Event) Event {
		attrs := make(map[string]string, len(ev.Attrs)+1)
		for k, v := range ev.Attrs {
			attrs[k] = v
		}
		attrs["campaign"] = "7"
		ev.Attrs = attrs
		return ev
	})

	// Seed dst past src's sequence so re-stamping is observable.
	dst.Publish(Event{Typ: TypeLog, Run: NoRun, Message: "pre-existing"})
	orig := src.Publish(Event{Typ: TypeLog, Run: NoRun, Message: "hello",
		Attrs: map[string]string{"k": "v"}})
	stop()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	first, ok := sub.Next(ctx)
	if !ok || first.Message != "pre-existing" {
		t.Fatalf("first dst event = %+v, ok=%v", first, ok)
	}
	fwd, ok := sub.Next(ctx)
	if !ok {
		t.Fatal("forwarded event never arrived")
	}
	if fwd.Message != "hello" || fwd.Attrs["campaign"] != "7" || fwd.Attrs["k"] != "v" {
		t.Errorf("forwarded event = %+v", fwd)
	}
	if fwd.Seq != first.Seq+1 {
		t.Errorf("forwarded Seq = %d, want dst-stamped %d", fwd.Seq, first.Seq+1)
	}
	if !fwd.At.Equal(orig.At) {
		t.Errorf("forwarded At = %v, want original %v", fwd.At, orig.At)
	}
	// The original event on src must be untouched by the decorator.
	if orig.Attrs["campaign"] != "" {
		t.Errorf("decorator mutated the source event: %+v", orig.Attrs)
	}
}

func TestForwardToStopDrains(t *testing.T) {
	src := NewPipeline()
	dst := NewPipeline()
	sub := dst.Subscribe(64)
	defer sub.Close()

	stop := src.ForwardTo(dst, nil)
	const n = 32
	for i := 0; i < n; i++ {
		src.Publish(Event{Typ: TypeLog, Run: NoRun, Message: "ev"})
	}
	stop() // must deliver everything already published before returning

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if _, ok := sub.Next(ctx); !ok {
			t.Fatalf("only %d/%d events survived stop", i, n)
		}
	}
	// Publishing after stop must not reach dst.
	src.Publish(Event{Typ: TypeLog, Run: NoRun, Message: "late"})
	if dst.LastSeq() != uint64(n) {
		t.Errorf("dst LastSeq = %d after post-stop publish, want %d", dst.LastSeq(), n)
	}
}

// forwardAllocBudget is 15 % above the 46 000 bytes per bridge measured when
// the budget was set (go1.24, on 75e920f, GOMAXPROCS 1 and 2): the
// subscription, the watcher's channels and closures, and the ring grown from
// 16 to 128 slots, since the watcher mostly runs only once stop waits for it.
// A ring allocated at forwardBuffer up front costs 4096 slots: 722 000 bytes.
const forwardAllocBudget = 53_000

// TestForwardAllocationBudget: a bridge costs what its traffic needs, not
// what its cap allows. 85 events is what one queued campaign publishes.
func TestForwardAllocationBudget(t *testing.T) {
	src, dst := NewPipeline(), NewPipeline()
	ev := Event{Typ: TypeLog, Run: NoRun, Phase: "measurement", Message: "run 1/8"}
	forward := func() {
		stop := src.ForwardTo(dst, nil)
		for i := 0; i < 85; i++ {
			src.Publish(ev)
		}
		stop()
	}
	forward()
	const bridges = 50
	before := telemetry.ReadRuntimeStats().AllocBytes
	for i := 0; i < bridges; i++ {
		forward()
	}
	perBridge := (telemetry.ReadRuntimeStats().AllocBytes - before) / bridges
	t.Logf("ForwardTo 85 events and stop: %d bytes per bridge (budget %d)", perBridge, forwardAllocBudget)
	if perBridge > forwardAllocBudget {
		t.Errorf("a bridge allocates %d bytes, budget %d", perBridge, forwardAllocBudget)
	}
}
