// Package queue is the controller's durable campaign queue: the piece that
// turns the API server from a single-shot CLI companion into the long-lived
// multi-tenant service the paper describes (Sec. 4.4). Experimenters submit
// campaigns; the queue admits one only when the allocation calendar grants
// its node set, holds the allocation for the campaign's lifetime, and
// releases it on completion, failure, or cancel. Admission is
// FIFO-within-priority with fair-share round-robin across users, so one
// tenant flooding the queue cannot starve the others — the GPLMT/LabWiki
// lesson from PAPERS.md. Every state transition is a queue event on an
// eventlog.Journal under the results store, and a submission or a queued
// cancel is synced before it is acknowledged, so a controller restart
// rebuilds the queue and resumes still-owed submissions without losing a
// single one.
package queue

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"pos/internal/calendar"
	"pos/internal/eventlog"
	"pos/internal/telemetry"
)

// State is a submission's lifecycle position.
type State string

const (
	// StateQueued: submitted, waiting for the calendar to grant its nodes.
	StateQueued State = "queued"
	// StateRunning: allocation held, campaign launched.
	StateRunning State = "running"
	// StateDone: campaign finished cleanly; allocation released.
	StateDone State = "done"
	// StateFailed: campaign (or its admission) failed terminally.
	StateFailed State = "failed"
	// StateCancelled: withdrawn by its user, queued or mid-run.
	StateCancelled State = "cancelled"
)

// Submission is one tenant's request to run a campaign.
type Submission struct {
	// ID is assigned by the controller and stable across restarts.
	ID int `json:"id"`
	// User owns the submission; the calendar allocation is made in their name.
	User string `json:"user"`
	// Name labels the campaign (and its experiment tree in the store).
	Name string `json:"name"`
	// ExpDir optionally points the launcher at an experiment-file directory.
	ExpDir string `json:"exp_dir,omitempty"`
	// Spec is the campaign spec, opaque to the queue: the launcher decodes
	// it (posctl's launcher reads a campaign.yml).
	Spec string `json:"spec,omitempty"`
	// Nodes is the node set the campaign needs, allocated atomically.
	Nodes []string `json:"nodes"`
	// Minutes is the requested allocation length.
	Minutes int `json:"minutes"`
	// Priority orders admission; higher admits first. Default 0.
	Priority int `json:"priority,omitempty"`
	// TraceParent carries the submitter's W3C trace identity through queue
	// wait and admission, so the launched campaign stitches into the
	// submitter's causal tree. Optional; journaled with the submission so a
	// recovered queue keeps the linkage.
	TraceParent string `json:"traceparent,omitempty"`
	// Submitted is stamped by the controller.
	Submitted time.Time `json:"submitted"`
}

// Status is a submission plus its current lifecycle state.
type Status struct {
	Submission
	State State `json:"state"`
	// Position is the 1-based place among queued submissions (0 otherwise).
	Position int `json:"position,omitempty"`
	// AllocationID is the held calendar allocation while running.
	AllocationID int       `json:"allocation_id,omitempty"`
	Admitted     time.Time `json:"admitted"`
	Finished     time.Time `json:"finished"`
	Error        string    `json:"error,omitempty"`
}

// Launch runs one admitted campaign. It must honor ctx — cancellation is how
// the controller preempts — and should publish its progress on events, which
// the controller forwards into the shared stream tagged with the campaign id.
type Launch func(ctx context.Context, sub Submission, events *eventlog.Pipeline) error

// Config wires a Controller.
type Config struct {
	// Dir holds the queue's event journal (events-NNNNN.jsonl segments, and
	// an older controller's queue.jsonl once imported). Typically the
	// results store's control dir (Store.ControlDir("queue")).
	Dir string
	// Calendar grants admission; required.
	Calendar *calendar.Calendar
	// Launch runs admitted campaigns; required.
	Launch Launch
	// Events, when set, receives queue lifecycle events and forwarded
	// campaign events for live observers (posctl watch).
	Events *eventlog.Pipeline
	// SweepInterval bounds how long an admission opportunity can sit
	// unnoticed (expired allocations are also swept each tick). Default 1s.
	SweepInterval time.Duration
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

// Controller errors.
var (
	ErrNotFound  = errors.New("queue: campaign not found")
	ErrWrongUser = errors.New("queue: campaign belongs to another user")
	ErrFinished  = errors.New("queue: campaign already finished")
	ErrClosed    = errors.New("queue: controller closed")
)

// entry is the controller's mutable view of one submission.
type entry struct {
	sub      Submission
	state    State
	allocID  int
	admitted time.Time
	finished time.Time
	err      string
	// cancel preempts the running launch; set while running.
	cancel context.CancelFunc
	// userCancel marks a user-requested preemption, distinguishing it from
	// shutdown (which must NOT journal a terminal record — the submission is
	// still owed and recovery re-queues it).
	userCancel bool
}

// Controller is the multi-tenant campaign queue: durable submissions,
// fair-share admission against the calendar, and launch supervision.
type Controller struct {
	cfg Config
	jl  *eventlog.Journal

	mu      sync.Mutex
	entries map[int]*entry
	order   []int // submission order, all states
	// queued is the live window: the queued entries in submission order, and
	// the only thing Submit, Get and an admission pass ever scan, so their
	// cost follows what is waiting, not what the controller has ever seen.
	// entries and order keep the history, for Get, List and recovery.
	queued    []*entry
	running   int // entries holding an allocation
	nextID    int
	admitSeq  uint64
	lastAdmit map[string]uint64 // user -> admitSeq of their latest admission
	closing   bool

	wake     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	loopDone chan struct{}
	runs     sync.WaitGroup
}

// Open replays the journal under cfg.Dir and starts the admission loop.
// Submissions that were queued — or running — when the previous controller
// stopped come back queued.
func Open(cfg Config) (*Controller, error) {
	if cfg.Dir == "" {
		return nil, errors.New("queue: Config.Dir required")
	}
	if cfg.Calendar == nil {
		return nil, errors.New("queue: Config.Calendar required")
	}
	if cfg.Launch == nil {
		return nil, errors.New("queue: Config.Launch required")
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = time.Second
	}
	c := &Controller{
		cfg:       cfg,
		entries:   make(map[int]*entry),
		nextID:    1,
		lastAdmit: make(map[string]uint64),
		wake:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		loopDone:  make(chan struct{}),
	}
	if err := importLegacy(cfg.Dir, c.now()); err != nil {
		return nil, err
	}
	var err error
	if c.jl, err = eventlog.OpenJournal(cfg.Dir, 0); err != nil {
		return nil, err
	}
	evs, err := c.jl.ReplaySince(0)
	if err == nil {
		err = c.recover(evs)
	}
	if err != nil {
		c.jl.Close()
		return nil, err
	}
	go c.loop()
	return c, nil
}

// transition is the journal event of campaign id entering st at at: the
// campaign and state keys of the events the controller publishes, and a
// failure's reason in Error.
func transition(id int, st State, at time.Time, errText string) eventlog.Event {
	return eventlog.Event{Typ: eventlog.TypeQueue, Run: eventlog.NoRun, At: at, Error: errText,
		Attrs: map[string]string{"campaign": strconv.Itoa(id), "state": string(st)}}
}

// submitEvent is the journal event of a submission: its queued transition
// stamped at Submitted, carrying every other field in Attrs. The nodes are
// one attr, a comma-separated list of Go-quoted names, so a name may hold
// any character, a comma included. Fields most submissions leave empty are
// left out, which keeps a typical submission's attrs a small map to decode.
func submitEvent(sub Submission) eventlog.Event {
	ev := transition(sub.ID, StateQueued, sub.Submitted, "")
	a := ev.Attrs
	var nodes []byte
	for i, n := range sub.Nodes {
		if i > 0 {
			nodes = append(nodes, ',')
		}
		nodes = strconv.AppendQuote(nodes, n)
	}
	a["user"], a["name"], a["minutes"], a["nodes"] = sub.User, sub.Name, strconv.Itoa(sub.Minutes), string(nodes)
	if sub.Priority != 0 {
		a["priority"] = strconv.Itoa(sub.Priority)
	}
	for _, kv := range [...][2]string{{"exp_dir", sub.ExpDir}, {"spec", sub.Spec}, {"traceparent", sub.TraceParent}} {
		if kv[1] != "" {
			a[kv[0]] = kv[1]
		}
	}
	return ev
}

// submission reads back the Submission of a submitEvent.
func submission(ev eventlog.Event) (Submission, error) {
	a := ev.Attrs
	sub := Submission{User: a["user"], Name: a["name"], ExpDir: a["exp_dir"], Spec: a["spec"],
		TraceParent: a["traceparent"], Submitted: ev.At}
	var errs [4]error
	for s := a["nodes"]; s != "" && errs[3] == nil; {
		var q string
		if q, errs[3] = strconv.QuotedPrefix(s); errs[3] == nil {
			n, _ := strconv.Unquote(q)
			sub.Nodes = append(sub.Nodes, n)
			s = strings.TrimPrefix(s[len(q):], ",")
		}
	}
	sub.ID, errs[0] = strconv.Atoi(a["campaign"])
	sub.Minutes, errs[1] = strconv.Atoi(a["minutes"])
	if p, ok := a["priority"]; ok {
		sub.Priority, errs[2] = strconv.Atoi(p)
	}
	return sub, errors.Join(errs[:]...)
}

// appendNext appends ev to jl as the event after its last one. The
// controller calls it with c.mu held (or before it is shared), which keeps
// the journal's seqs in transition order.
func appendNext(jl *eventlog.Journal, ev eventlog.Event) error {
	ev.Seq = jl.LastSeq() + 1
	return jl.Append(ev)
}

// recover rebuilds in-memory state from the journal's events and re-queues
// submissions the previous controller had admitted but never finished.
func (c *Controller) recover(evs []eventlog.Event) error {
	for _, ev := range evs {
		if _, ok := ev.Attrs["minutes"]; ok { // a submit; a requeue has no submission
			sub, err := submission(ev)
			if err != nil {
				return fmt.Errorf("queue: journal event %d: %w", ev.Seq, err)
			}
			c.entries[sub.ID] = &entry{sub: sub, state: StateQueued}
			c.order = append(c.order, sub.ID)
			c.nextID = max(c.nextID, sub.ID+1)
			continue
		}
		id, _ := strconv.Atoi(ev.Attrs["campaign"])
		e := c.entries[id]
		if e == nil {
			continue
		}
		switch st := State(ev.Attrs["state"]); st {
		case StateQueued:
			e.state, e.admitted = st, time.Time{}
		case StateRunning:
			e.state, e.admitted = st, ev.At
		case StateDone, StateFailed, StateCancelled:
			e.state, e.finished, e.err = st, ev.At, ev.Error
		}
	}
	// Admitted-but-unfinished submissions: the campaign died with its
	// controller. Journal the requeue so the next recovery agrees.
	for _, id := range c.order {
		e := c.entries[id]
		if e.state == StateRunning {
			e.state, e.admitted = StateQueued, time.Time{}
			if err := appendNext(c.jl, transition(id, StateQueued, c.now(), "")); err != nil {
				return err
			}
		}
		if e.state == StateQueued {
			c.enqueueLocked(e)
		}
	}
	return nil
}

// enqueueLocked puts e at the tail of the live queue. c.mu must be held (or
// the controller not yet shared).
func (c *Controller) enqueueLocked(e *entry) {
	c.queued = append(c.queued, e)
	queueDepth.Inc()
}

// dequeueLocked takes e, which has just left StateQueued, out of the live
// queue. c.mu must be held.
func (c *Controller) dequeueLocked(e *entry) {
	i := slices.Index(c.queued, e)
	c.queued = slices.Delete(c.queued, i, i+1)
	queueDepth.Dec()
}

func (c *Controller) now() time.Time {
	if c.cfg.Clock != nil {
		return c.cfg.Clock()
	}
	return time.Now()
}

// kick nudges the admission loop without blocking.
func (c *Controller) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// Submit validates, journals, and enqueues one submission, returning its
// assigned ID and queue position once the journal holds it on disk. The
// fsync runs outside c.mu, so readers and the admission pass never wait
// behind it. A failed fsync is returned, and the submission stays queued:
// the journal has its record, and a restart replays it.
func (c *Controller) Submit(sub Submission) (Status, error) {
	if sub.User == "" {
		return Status{}, errors.New("queue: submission needs a user")
	}
	if len(sub.Nodes) == 0 {
		return Status{}, errors.New("queue: submission needs at least one node")
	}
	if sub.Minutes <= 0 {
		return Status{}, errors.New("queue: submission needs minutes > 0")
	}
	if sub.Name == "" {
		sub.Name = "campaign"
	}
	sub.Nodes = append([]string(nil), sub.Nodes...)

	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return Status{}, ErrClosed
	}
	sub.ID = c.nextID
	c.nextID++
	sub.Submitted = c.now()
	e := &entry{sub: sub, state: StateQueued}
	if err := appendNext(c.jl, submitEvent(sub)); err != nil {
		c.mu.Unlock()
		return Status{}, err
	}
	c.entries[sub.ID] = e
	c.order = append(c.order, sub.ID)
	c.enqueueLocked(e)
	st := c.statusLocked(e)
	c.mu.Unlock()
	if err := c.jl.Sync(); err != nil {
		return Status{}, err
	}

	c.event(sub, StateQueued, "submitted", "")
	c.kick()
	return st, nil
}

// Cancel withdraws a submission. A queued one is removed immediately; a
// running one is preempted through its context and reaches StateCancelled
// once the launch returns. user must own the submission ("" skips the check,
// for operator tooling).
func (c *Controller) Cancel(user string, id int) (Status, error) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok {
		c.mu.Unlock()
		return Status{}, ErrNotFound
	}
	if user != "" && e.sub.User != user {
		c.mu.Unlock()
		return Status{}, fmt.Errorf("%w: %s", ErrWrongUser, e.sub.User)
	}
	switch e.state {
	case StateQueued:
		now := c.now()
		if err := appendNext(c.jl, transition(id, StateCancelled, now, "")); err != nil {
			c.mu.Unlock()
			return Status{}, err
		}
		e.state, e.finished = StateCancelled, now
		c.dequeueLocked(e)
		st := c.statusLocked(e)
		sub := e.sub
		c.mu.Unlock()
		// Acknowledged once on disk, as Submit is; the fsync holds no lock.
		if err := c.jl.Sync(); err != nil {
			return Status{}, err
		}
		c.event(sub, StateCancelled, "cancelled while queued", "")
		c.kick()
		return st, nil
	case StateRunning:
		e.userCancel = true
		cancel := e.cancel
		st := c.statusLocked(e)
		sub := e.sub
		c.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		c.event(sub, StateRunning, "preempting", "")
		return st, nil
	default:
		c.mu.Unlock()
		return Status{}, ErrFinished
	}
}

// Get returns one submission's status.
func (c *Controller) Get(id int) (Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return c.statusLocked(e), nil
}

// List returns every known submission in submission order, queued positions
// filled in.
func (c *Controller) List() []Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Status, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.statusLocked(c.entries[id]))
	}
	return out
}

// statusLocked snapshots e; c.mu must be held.
func (c *Controller) statusLocked(e *entry) Status {
	st := Status{
		Submission:   e.sub,
		State:        e.state,
		AllocationID: e.allocID,
		Admitted:     e.admitted,
		Finished:     e.finished,
		Error:        e.err,
	}
	if e.state == StateQueued {
		st.Position = slices.Index(c.queued, e) + 1
	}
	return st
}

// loop is the admission scheduler: it runs a pass whenever kicked (submit,
// finish, cancel) and on every sweep tick, which also retires expired
// calendar allocations so dead reservations never pile up (the Expire leak).
func (c *Controller) loop() {
	defer close(c.loopDone)
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-c.wake:
		case <-t.C:
		}
		c.pass()
	}
}

// pass sweeps expired allocations, then admits every queued submission the
// calendar will currently grant, fair-share order.
func (c *Controller) pass() {
	now := c.now()
	c.cfg.Calendar.Expire(now)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closing {
		return
	}
	blocked := make(map[string]bool) // users whose head conflicted this pass
	admitted := 0
	for {
		e := c.nextCandidateLocked(blocked)
		if e == nil {
			break
		}
		if c.admitLocked(e, blocked, now) {
			admitted++
		}
	}
	// A pass that admitted nothing while tenants were waiting and no
	// campaign held an allocation is a starvation symptom — capacity is
	// free but the calendar still refuses every head. The health layer's
	// queue-starvation probe trips when these accumulate.
	if admitted == 0 && len(c.queued) > 0 && c.running == 0 {
		starvedPasses.Inc()
	}
}

// nextCandidateLocked picks the queued head to try next: per user, only the
// oldest submission in the user's highest priority tier is eligible (strict
// FIFO within a tenant); across users, higher priority wins, then the
// least-recently-admitted user (fair share), then submission order.
func (c *Controller) nextCandidateLocked(blocked map[string]bool) *entry {
	heads := make(map[string]*entry)
	for _, e := range c.queued {
		if blocked[e.sub.User] {
			continue
		}
		h, ok := heads[e.sub.User]
		if !ok || e.sub.Priority > h.sub.Priority {
			heads[e.sub.User] = e
		}
	}
	var best *entry
	for _, e := range heads {
		if best == nil || headLess(e, best, c.lastAdmit) {
			best = e
		}
	}
	return best
}

// headLess orders two users' head submissions for admission.
func headLess(a, b *entry, lastAdmit map[string]uint64) bool {
	if a.sub.Priority != b.sub.Priority {
		return a.sub.Priority > b.sub.Priority
	}
	la, lb := lastAdmit[a.sub.User], lastAdmit[b.sub.User]
	if la != lb {
		return la < lb
	}
	return a.sub.ID < b.sub.ID
}

// admitLocked tries to allocate e's nodes now, reporting whether the
// submission was admitted. A conflict parks the user for this pass (their
// later submissions must not jump the FIFO); any other calendar error is
// terminal for the submission. On success the campaign launches in its own
// goroutine.
func (c *Controller) admitLocked(e *entry, blocked map[string]bool, now time.Time) bool {
	sub := e.sub
	end := now.Add(time.Duration(sub.Minutes) * time.Minute)
	alloc, err := c.cfg.Calendar.Allocate(sub.User, sub.Nodes, now, end)
	if errors.Is(err, calendar.ErrConflict) {
		blocked[sub.User] = true
		return false
	}
	if err != nil {
		// Unknown node, duplicate request, ... — retrying cannot help.
		e.state, e.err, e.finished = StateFailed, err.Error(), now
		appendNext(c.jl, transition(sub.ID, StateFailed, now, e.err))
		c.dequeueLocked(e)
		admissions("rejected").Inc()
		c.event(sub, StateFailed, "admission rejected", e.err)
		return false
	}

	e.state, e.allocID, e.admitted = StateRunning, alloc.ID, now
	c.admitSeq++
	c.lastAdmit[sub.User] = c.admitSeq
	appendNext(c.jl, transition(sub.ID, StateRunning, now, ""))
	c.dequeueLocked(e)
	c.running++
	admissions("admitted").Inc()

	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel
	c.runs.Add(1)
	go func() {
		defer c.runs.Done()
		defer cancel()
		nodes := slices.Clone(sub.Nodes)
		slices.Sort(nodes)
		c.event(sub, StateRunning, fmt.Sprintf("admitted on %s (allocation #%d)",
			strings.Join(nodes, ","), alloc.ID), "")
		c.run(ctx, e)
	}()
	return true
}

// run drives one admitted campaign: a private event pipeline forwarded into
// the shared stream tagged with the campaign id, then finish bookkeeping.
func (c *Controller) run(ctx context.Context, e *entry) {
	events := eventlog.NewPipeline()
	var stopForward func()
	if c.cfg.Events != nil {
		id := strconv.Itoa(e.sub.ID)
		user := e.sub.User
		stopForward = events.ForwardTo(c.cfg.Events, func(ev eventlog.Event) eventlog.Event {
			attrs := make(map[string]string, len(ev.Attrs)+2)
			for k, v := range ev.Attrs {
				attrs[k] = v
			}
			attrs["campaign"] = id
			attrs["queue_user"] = user
			ev.Attrs = attrs
			return ev
		})
	}
	// Hand the launcher the submitter's trace identity and the admission
	// stamps by context: the campaign roots its trace from the traceparent
	// and publishes the queue-wait event itself, after its journal attaches —
	// anything published on `events` before Launch attaches a journal never
	// reaches the archive.
	ctx = telemetry.ContextWithTraceParent(ctx, e.sub.TraceParent)
	ctx = eventlog.WithAdmission(ctx, eventlog.Admission{
		SubmissionID: strconv.Itoa(e.sub.ID),
		User:         e.sub.User,
		Submitted:    e.sub.Submitted,
		// e.admitted was stamped under c.mu before this goroutine started
		// (the go statement orders it); nothing rewrites it while running.
		Admitted: e.admitted,
	})
	err := c.cfg.Launch(ctx, e.sub, events)
	if stopForward != nil {
		stopForward()
	}
	c.finish(e, ctx, err)
}

// finish releases the allocation and records the terminal state. During
// shutdown the submission stays unterminated in the journal — the next Open
// re-queues it; a user cancel journals its terminal record normally.
func (c *Controller) finish(e *entry, ctx context.Context, err error) {
	now := c.now()
	c.mu.Lock()
	if e.allocID != 0 {
		if relErr := c.cfg.Calendar.Release(e.sub.User, e.allocID); relErr != nil &&
			!errors.Is(relErr, calendar.ErrNotFound) {
			// Nothing to do beyond noting it; ErrNotFound just means the
			// allocation already expired and was swept.
			e.err = relErr.Error()
		}
		e.allocID = 0
	}
	c.running--
	if c.closing && !e.userCancel && ctx.Err() != nil {
		// Preempted by shutdown: still owed. Leave its running transition
		// the last one journaled, so recovery re-queues the submission.
		c.mu.Unlock()
		return
	}
	sub := e.sub
	st, errText := StateDone, ""
	switch {
	case e.userCancel || (ctx.Err() != nil && errors.Is(err, context.Canceled)):
		st = StateCancelled
	case err != nil:
		st, e.err, errText = StateFailed, err.Error(), err.Error()
	}
	appendNext(c.jl, transition(sub.ID, st, now, errText))
	e.state, e.finished, e.cancel = st, now, nil
	c.mu.Unlock()

	msg := "finished"
	if st != StateDone {
		msg = string(st)
	}
	c.event(sub, st, msg, errText)
	c.kick()
}

// Close stops the admission loop, preempts running campaigns (without
// journaling terminal records — they are re-queued on the next Open), waits
// for them, and closes the journal.
func (c *Controller) Close() error {
	c.mu.Lock()
	alreadyClosing := c.closing
	c.closing = true
	var cancels []context.CancelFunc
	for _, e := range c.entries {
		if e.cancel != nil {
			cancels = append(cancels, e.cancel)
		}
	}
	c.mu.Unlock()
	if alreadyClosing {
		return ErrClosed
	}
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.loopDone
	for _, cancel := range cancels {
		cancel()
	}
	c.runs.Wait()
	// What is still queued stays owed in the journal; this controller just
	// stops counting it.
	c.mu.Lock()
	queueDepth.Add(-float64(len(c.queued)))
	c.mu.Unlock()
	return errors.Join(c.jl.Sync(), c.jl.Close())
}

// event publishes one queue lifecycle event on the shared pipeline.
func (c *Controller) event(sub Submission, st State, msg, errText string) {
	if c.cfg.Events == nil {
		return
	}
	c.cfg.Events.Publish(eventlog.Event{
		Typ:     eventlog.TypeQueue,
		Run:     eventlog.NoRun,
		Message: fmt.Sprintf("campaign #%d %s/%s: %s", sub.ID, sub.User, sub.Name, msg),
		Error:   errText,
		Attrs: map[string]string{
			"campaign": strconv.Itoa(sub.ID),
			"user":     sub.User,
			"state":    string(st),
		},
	})
}
