package eventlog

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline is the process-side event spine: it assigns monotonic sequence
// numbers, appends to the experiment journal when one is attached, and fans
// out to live subscribers through the broker. Publish is safe for concurrent
// use and never blocks on a slow consumer; the journal write is the only
// synchronous cost on the hot path.
type Pipeline struct {
	broker *Broker
	clock  atomic.Pointer[func() time.Time]

	// mu makes sequence assignment, the journal append and the broadcast
	// one step, so every subscriber and the journal see events in Seq order.
	mu      sync.Mutex
	seq     uint64
	journal *Journal
}

// NewPipeline returns a pipeline with no journal attached. Events published
// before a journal is attached reach live subscribers but are not persisted —
// the journal attaches once the experiment's results directory exists.
func NewPipeline() *Pipeline {
	return &Pipeline{broker: NewBroker()}
}

// SetClock pins the timestamp source (tests use this; default time.Now).
func (p *Pipeline) SetClock(clock func() time.Time) {
	p.clock.Store(&clock)
}

func (p *Pipeline) now() time.Time {
	if c := p.clock.Load(); c != nil {
		return (*c)()
	}
	return time.Now()
}

// AttachJournal starts persisting published events into j. The sequence
// counter is advanced past the journal's last recorded sequence, so a
// controller resuming a crashed experiment continues the stream instead of
// reissuing ids.
func (p *Pipeline) AttachJournal(j *Journal) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.journal = j
	if j != nil {
		p.seq = max(p.seq, j.LastSeq())
	}
}

// DetachJournal stops persisting and returns the previously attached journal
// (nil if none). The caller owns closing it.
func (p *Pipeline) DetachJournal() *Journal {
	p.mu.Lock()
	defer p.mu.Unlock()
	j := p.journal
	p.journal = nil
	return j
}

// JournalDir is the directory under an experiment that holds its journal.
const JournalDir = "events"

// RecordUnder journals every event published on p from now on under
// <expDir>/events/ and returns the function that detaches and closes the
// journal. It is how a runner and a campaign persist their execution record;
// p must belong to that one execution, because the journal takes whatever p
// publishes. A journal that cannot be opened leaves p unjournaled:
// observability never fails the experiment it observes.
func (p *Pipeline) RecordUnder(expDir string) (stop func()) {
	j, err := OpenJournal(filepath.Join(expDir, JournalDir), 0)
	if err != nil {
		journalErrors.Inc()
		return func() {}
	}
	p.AttachJournal(j)
	return func() {
		p.DetachJournal()
		j.Close()
	}
}

// Publish stamps ev with the next sequence number and the current time, then
// journals and broadcasts it. The stamped event is returned. Journal append
// failures are counted, not propagated — observability must never fail the
// experiment it observes.
func (p *Pipeline) Publish(ev Event) Event {
	if ev.At.IsZero() {
		ev.At = p.now()
	}
	if ev.Typ == "" {
		ev.Typ = TypeLog
	}
	p.mu.Lock()
	p.seq++
	ev.Seq = p.seq
	if p.journal != nil {
		if err := p.journal.Append(ev); err != nil {
			journalErrors.Inc()
		}
	}
	p.broker.Publish(ev)
	p.mu.Unlock()
	eventsPublished.Inc()
	return ev
}

// Subscribe attaches a live consumer (see Broker.Subscribe).
func (p *Pipeline) Subscribe(buffer int) *Subscription {
	return p.broker.Subscribe(buffer)
}

// LastSeq returns the sequence number of the most recently published event.
func (p *Pipeline) LastSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq
}

// ReplaySince reads journaled events with Seq > after. It returns nil
// without error when no journal is attached — the stream then has no
// replayable history.
func (p *Pipeline) ReplaySince(after uint64) ([]Event, error) {
	p.mu.Lock()
	j := p.journal
	p.mu.Unlock()
	if j == nil {
		return nil, nil
	}
	return j.ReplaySince(after)
}
