// Package sim provides a deterministic discrete-event simulation engine.
//
// All data-plane components of the emulated testbed (load generators, links,
// routers) are driven by a single virtual clock. Events are executed in
// strict timestamp order; ties are broken by insertion order so that runs are
// fully reproducible. Virtual time is measured in nanoseconds and is entirely
// decoupled from wall-clock time: a three-hour measurement campaign from the
// paper's appendix completes in milliseconds of real time.
//
// Two features serve the batched data plane. A ticker lane (Ticks) runs
// periodic handlers without occupying the event heap, so a load generator
// emitting one packet train per tick costs O(1) per tick instead of a heap
// push/pop over thousands of pre-scheduled events. And a batching mode
// (SetBatching) lets components deliver work synchronously, carrying future
// logical timestamps instead of scheduling heap events; the engine's
// watermark (Witness) records how far such cut-through activity reached so
// the clock still ends a run at the same instant the scalar engine would.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It is layout-compatible
// with time.Duration so the two convert freely.
type Duration = time.Duration

// Common virtual-time constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime = Time(math.MaxInt64)

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// Handler is a callback executed when an event fires. It runs on the
// engine's single logical thread; handlers never execute concurrently.
type Handler func(now Time)

// ArgHandler is a callback that receives a caller-supplied argument. Hot
// paths use it with pooled argument structs so that scheduling an event does
// not allocate a closure.
type ArgHandler func(now Time, arg any)

// event is a scheduled handler. Events are recycled through the engine's
// free list; gen distinguishes incarnations so a stale EventID held across a
// recycle can neither cancel the wrong event nor reach a stale heap index.
type event struct {
	at      Time
	seq     uint64 // tie-break: FIFO among equal timestamps
	handler Handler
	argh    ArgHandler
	arg     any
	index   int // heap index, -1 when removed
	gen     uint32
	stopped bool
}

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// EventID identifies a scheduled event so it can be cancelled. The
// generation snapshot makes IDs single-use: once the event fires or is
// cancelled, the ID goes stale and can never affect a recycled event.
type EventID struct {
	ev  *event
	gen uint32
}

// maxFreeEvents bounds the engine's event free list; beyond this, recycled
// events are left to the garbage collector.
const maxFreeEvents = 1024

// Engine is a discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	queue   eventQueue
	seq     uint64
	running bool
	stopped bool
	steps   uint64

	// batching enables cut-through delivery in data-plane components.
	batching bool
	// watermark records the latest virtual time witnessed by cut-through
	// activity (deliveries performed synchronously instead of via events).
	watermark Time

	// free recycles fired and cancelled events.
	free []*event

	// tickers are the periodic lanes; ties against heap events go to the
	// ticker, matching the scalar engine where tick events are scheduled
	// before any data-plane event and therefore carry lower sequence
	// numbers.
	tickers  []*Ticker
	tickerID int
}

// NewEngine returns an engine with the clock at time zero and an empty
// event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Len reports the number of pending events, including active ticker lanes.
func (e *Engine) Len() int {
	n := len(e.queue)
	for _, t := range e.tickers {
		if t.active {
			n++
		}
	}
	return n
}

// Steps reports the total number of events executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// SetBatching toggles cut-through mode. Data-plane components consult
// Batching to decide between scheduling heap events (scalar oracle) and
// synchronous delivery with logical timestamps. Flip it only while the
// engine is quiescent.
func (e *Engine) SetBatching(on bool) { e.batching = on }

// Batching reports whether cut-through mode is enabled.
func (e *Engine) Batching() bool { return e.batching }

// Witness records that cut-through activity logically reached time t. When
// the event queue drains, the clock advances to the watermark so a batched
// run ends at the same virtual instant as its scalar twin.
func (e *Engine) Witness(t Time) {
	if t > e.watermark {
		e.watermark = t
	}
}

// alloc takes an event from the free list or the heap allocator.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		eventPoolHits.Inc()
		return ev
	}
	eventPoolMisses.Inc()
	return &event{}
}

// recycle retires an event: bump the generation so stale EventIDs die, drop
// references, and return it to the free list.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.handler, ev.argh, ev.arg = nil, nil, nil
	ev.stopped = false
	if len(e.free) < maxFreeEvents {
		e.free = append(e.free, ev)
	}
}

// At schedules h to run at absolute virtual time t. Scheduling in the past
// (t < Now) is a programming error and panics, because it would silently
// break causality and with it reproducibility.
func (e *Engine) At(t Time, h Handler) EventID {
	if h == nil {
		panic("sim: nil handler")
	}
	ev := e.schedule(t)
	ev.handler = h
	return EventID{ev: ev, gen: ev.gen}
}

// AtArg schedules h(t, arg) at absolute virtual time t. Unlike At it needs
// no closure: callers pass a package-level handler plus a (typically pooled)
// argument, so steady-state scheduling is allocation-free.
func (e *Engine) AtArg(t Time, h ArgHandler, arg any) EventID {
	if h == nil {
		panic("sim: nil handler")
	}
	ev := e.schedule(t)
	ev.argh = h
	ev.arg = arg
	return EventID{ev: ev, gen: ev.gen}
}

func (e *Engine) schedule(t Time) *event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.at = t
	ev.seq = e.seq
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules h to run d after the current time.
func (e *Engine) After(d Duration, h Handler) EventID {
	if d < 0 {
		panic("sim: negative delay")
	}
	return e.At(e.now.Add(d), h)
}

// Cancel removes a pending event. Cancelling an already-fired,
// already-cancelled, or otherwise stale ID is a no-op and reports false.
func (e *Engine) Cancel(id EventID) bool {
	ev := id.ev
	if ev == nil || ev.gen != id.gen || ev.stopped || ev.index < 0 {
		return false
	}
	ev.stopped = true
	heap.Remove(&e.queue, ev.index)
	e.recycle(ev)
	return true
}

// ErrStopped is returned by Run when the engine was halted by Stop.
var ErrStopped = errors.New("sim: engine stopped")

// Stop halts the engine at the end of the currently executing event.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in timestamp order until the queue is empty.
// It returns ErrStopped if halted via Stop.
func (e *Engine) Run() error {
	return e.run(MaxTime)
}

// RunUntil executes events with timestamps <= deadline. The clock is left at
// min(deadline, time of last event) — advancing to the deadline even when
// the queue empties early, so that sequential phases compose predictably.
func (e *Engine) RunUntil(deadline Time) error {
	return e.run(deadline)
}

// run is the event loop behind Run (deadline MaxTime: stop where the work
// stops) and RunUntil (finite deadline: pad the clock up to it).
func (e *Engine) run(deadline Time) error {
	if e.running {
		return errors.New("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	e.stopped = false
	for {
		tk := e.nextTicker()
		var ev *event
		if len(e.queue) > 0 {
			ev = e.queue[0]
		}
		if tk == nil && ev == nil {
			break
		}
		// Ticker wins ties: in the scalar engine all tick events are
		// scheduled up front and hence precede same-time data events.
		useTicker := tk != nil && (ev == nil || tk.next <= ev.at)
		var at Time
		if useTicker {
			at = tk.next
		} else {
			at = ev.at
		}
		if at > deadline {
			e.now = deadline
			return nil
		}
		e.now = at
		e.steps++
		if useTicker {
			tk.fire(at)
		} else {
			heap.Pop(&e.queue)
			if ev.argh != nil {
				ev.argh(at, ev.arg)
			} else {
				ev.handler(at)
			}
			e.recycle(ev)
		}
		if e.stopped {
			return ErrStopped
		}
	}
	if w := e.watermark; w > e.now {
		if w > deadline {
			w = deadline
		}
		e.now = w
	}
	if deadline != MaxTime && deadline > e.now {
		e.now = deadline
	}
	return nil
}

// Step executes exactly one pending event (ticker lanes included) and
// reports whether one existed.
func (e *Engine) Step() bool {
	tk := e.nextTicker()
	var ev *event
	if len(e.queue) > 0 {
		ev = e.queue[0]
	}
	if tk == nil && ev == nil {
		return false
	}
	if tk != nil && (ev == nil || tk.next <= ev.at) {
		e.now = tk.next
		e.steps++
		tk.fire(e.now)
		return true
	}
	heap.Pop(&e.queue)
	e.now = ev.at
	e.steps++
	if ev.argh != nil {
		ev.argh(e.now, ev.arg)
	} else {
		ev.handler(e.now)
	}
	e.recycle(ev)
	return true
}

// Reset discards all pending events and ticker lanes and rewinds the clock
// to zero. The event free list survives so pooled capacity carries across
// runs.
func (e *Engine) Reset() {
	// Retire still-pending events so EventIDs issued before the reset go
	// stale instead of pointing into a discarded heap.
	for _, ev := range e.queue {
		ev.index = -1
		e.recycle(ev)
	}
	e.queue = nil
	e.tickers = nil
	e.now = 0
	e.seq = 0
	e.steps = 0
	e.stopped = false
	e.watermark = 0
}
