package eventlog

import "context"

// Watch hands every event published on p from now on to fn, in sequence
// order, on a goroutine of its own. It is how a consumer observes a run: a
// console printer, the flight recorder, a forward into another pipeline.
// fn never runs on the publisher's goroutine, so a slow observer costs the
// experiment nothing; a burst beyond buffer events (see Subscribe) drops
// events, and fn sees one TypeDropped notice, rather than stalling
// publishers.
//
// The returned stop function detaches from p, hands fn every event already
// buffered, and waits for the watcher goroutine to exit: once it returns,
// fn has seen everything published before the call. It is idempotent.
func (p *Pipeline) Watch(buffer int, fn func(Event)) (stop func()) {
	sub := p.Subscribe(buffer)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			ev, ok := sub.Next(context.Background())
			if !ok {
				return
			}
			fn(ev)
		}
	}()
	return func() {
		sub.Close()
		<-done
	}
}

// ForwardTo bridges two pipelines: every event published on p from now on is
// re-published into dst, optionally rewritten by decorate first. dst assigns
// its own sequence numbers (the forwarded copy keeps its original timestamp),
// so a destination stream stays monotonic even when several sources feed it.
//
// The campaign queue uses this to give each execution a private pipeline —
// journaled under the execution's own experiment directory — while a live
// observer on the shared stream still sees every event. The returned stop
// function is Watch's.
func (p *Pipeline) ForwardTo(dst *Pipeline, decorate func(Event) Event) (stop func()) {
	return p.Watch(forwardBuffer, func(ev Event) {
		if decorate != nil {
			ev = decorate(ev)
		}
		dst.Publish(ev)
	})
}

// forwardBuffer sizes the bridge's ring buffer. Generous because a bridge
// that drops loses events for every downstream observer, not just one.
const forwardBuffer = 4096
