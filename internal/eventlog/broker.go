package eventlog

import (
	"context"
	"strconv"
	"sync"
	"time"
)

// DefaultSubscriberBuffer is the ring capacity handed to subscribers that do
// not choose their own.
const DefaultSubscriberBuffer = 1024

// minRing is the ring's first allocation. A ring grows by doubling from here
// to its capacity only when its consumer lags, so a subscriber that keeps up
// holds a few slots rather than its whole bound.
const minRing = 16

// Broker fans published events out to subscribers. Publication never blocks:
// each subscriber owns a bounded ring buffer, and when a consumer falls
// behind, its oldest buffered events are dropped and counted instead of the
// publisher (the measurement hot path) waiting. A stalled SSE client
// therefore costs the campaign nothing but that client's own completeness.
type Broker struct {
	mu   sync.Mutex
	subs map[*Subscription]struct{}
}

// NewBroker returns an empty broker.
func NewBroker() *Broker {
	return &Broker{subs: make(map[*Subscription]struct{})}
}

// Subscribe registers a consumer with a ring buffer of the given capacity
// (DefaultSubscriberBuffer when <= 0). The ring starts empty and grows on
// demand up to that capacity. The caller must Close the subscription when
// done.
func (b *Broker) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = DefaultSubscriberBuffer
	}
	s := &Subscription{
		broker: b,
		limit:  buffer,
		notify: make(chan struct{}, 1),
	}
	b.mu.Lock()
	b.subs[s] = struct{}{}
	b.mu.Unlock()
	return s
}

// Publish delivers ev to every live subscriber without blocking. It pushes
// while holding b.mu; b.mu before s.mu is the only order the two are nested
// in.
func (b *Broker) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for s := range b.subs {
		s.push(ev)
	}
}

func (b *Broker) remove(s *Subscription) {
	b.mu.Lock()
	delete(b.subs, s)
	b.mu.Unlock()
}

// Subscription is one consumer's bounded view of the stream.
type Subscription struct {
	broker *Broker

	mu      sync.Mutex
	buf     []Event // ring, grown on demand up to limit
	limit   int     // capacity at which the oldest event is dropped
	head    int     // index of the oldest buffered event
	n       int     // buffered count
	dropped uint64
	acked   uint64 // drops already reported to the consumer via TypeDropped
	closed  bool
	notify  chan struct{}
}

// push appends ev. A full ring below its limit doubles; at the limit the
// oldest buffered event is evicted.
func (s *Subscription) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	switch {
	case s.n < len(s.buf): // room left
	case s.n < s.limit:
		grown := make([]Event, min(max(2*s.n, minRing), s.limit))
		k := copy(grown, s.buf[s.head:])
		copy(grown[k:], s.buf[:s.head])
		s.buf, s.head = grown, 0
	default:
		s.head = (s.head + 1) % len(s.buf)
		s.n--
		s.dropped++
		eventsDropped.Inc()
	}
	s.buf[(s.head+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next blocks until an event is buffered, the subscription is closed, or ctx
// ends. It returns ok=false once the subscription is closed and drained.
// When the ring overflowed since the last call, Next first returns one
// synthetic TypeDropped event (Seq 0, Attrs["dropped"] = gap size) so the
// consumer learns it lost events instead of silently missing them.
func (s *Subscription) Next(ctx context.Context) (Event, bool) {
	for {
		s.mu.Lock()
		if gap := s.dropped - s.acked; gap > 0 {
			s.acked = s.dropped
			s.mu.Unlock()
			return Event{
				At:    time.Now(),
				Typ:   TypeDropped,
				Level: "WARN",
				Run:   NoRun,
				Attrs: map[string]string{"dropped": strconv.FormatUint(gap, 10)},
			}, true
		}
		if s.n > 0 {
			ev := s.buf[s.head]
			// Clear the slot so the ring does not keep the event's
			// attributes alive after the consumer has it.
			s.buf[s.head] = Event{}
			s.head = (s.head + 1) % len(s.buf)
			s.n--
			s.mu.Unlock()
			return ev, true
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return Event{}, false
		}
		select {
		case <-ctx.Done():
			return Event{}, false
		case <-s.notify:
		}
	}
}

// Dropped reports how many events this subscriber lost to backpressure.
func (s *Subscription) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the broker. Buffered events remain
// readable via Next until drained.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.broker.remove(s)
	select {
	case s.notify <- struct{}{}:
	default:
	}
}
