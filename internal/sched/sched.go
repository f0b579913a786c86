// Package sched schedules a measurement campaign across replica testbeds.
//
// The paper executes the cross product of loop variables as one sequential
// sweep on one testbed. For large parameter spaces the sweep's wall-clock
// time is the sum of every run — MACI's observation is that independent runs
// dispatched onto multiple testbed instances in parallel are the single
// biggest wall-clock win. This package implements that: a campaign holds N
// replica testbeds (disjoint host-sets with identical images and variables,
// like the paper's pos/vpos dual setup), shards the combinations across them
// through a shared work queue, and records everything into ONE results
// experiment with exactly the run numbering and per-run metadata the
// sequential sweep would produce.
//
// Reproducibility invariants, enforced before any node is touched:
//
//   - every replica declares the same experiment name, user, global
//     variables, loop variables, and role→image mapping — a campaign over
//     diverging replicas would not be one experiment;
//   - replica host-sets sharing one hosttools service must be disjoint,
//     so per-run scopes can never collide;
//   - run numbering is the deterministic cross-product order regardless of
//     which replica executes which run.
package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pos/internal/core"
	"pos/internal/eventlog"
	"pos/internal/hosttools"
	"pos/internal/results"
	"pos/internal/telemetry"
)

// Replica is one testbed instance participating in a campaign: a runner over
// its host-set and the logical experiment bound to this replica's nodes.
type Replica struct {
	// Name namespaces the replica's setup artifacts ("replica0" style
	// default). It must be flat (no path separators).
	Name string
	// Runner drives this replica's hosts.
	Runner *core.Runner
	// Experiment is the campaign's experiment definition bound to this
	// replica's node names. Everything except the node binding must be
	// identical across replicas.
	Experiment *core.Experiment
}

// Campaign shards one experiment's measurement runs across replicas.
type Campaign struct {
	// Replicas are the participating testbed instances (at least one).
	Replicas []Replica
	// ContinueOnRunFailure keeps the campaign sweeping after a failed
	// run; the default is fail-fast — cancel everything in flight. With
	// retries enabled, fail-fast only triggers once a run has exhausted
	// its attempts.
	ContinueOnRunFailure bool
	// MaxAttempts bounds how many times a failed run is dispatched,
	// counting the first attempt. Zero or one disables retries. Every
	// retry is preceded by a clean-slate reboot-and-re-setup of the
	// executing replica's hosts, so a retry runs on exactly the state a
	// fresh experiment would see; a failed re-setup consumes the attempt
	// like a failed run.
	MaxAttempts int
	// QuarantineAfter drains a replica from the campaign after this many
	// consecutive failed dispatches on it: the replica stops pulling
	// work, its failed run is redistributed to the surviving replicas,
	// and the campaign degrades gracefully instead of burning the whole
	// sweep on one broken testbed. Zero disables quarantine. When every
	// replica is quarantined the campaign aborts.
	QuarantineAfter int
	// Events, when non-nil, receives the campaign's execution record: its
	// own dispatch decisions, every replica runner's workflow events, and
	// replica heartbeats. Observers subscribe to it. The campaign journals
	// it under <results>/events/ while it runs, so the pipeline must belong
	// to this campaign; without one, the campaign journals a private one.
	Events *eventlog.Pipeline
	// HeartbeatInterval is the period of per-replica liveness events on
	// the Events pipeline (and the pos_replica_up gauge). Zero disables
	// heartbeat probes; the gauge still tracks worker start/exit.
	HeartbeatInterval time.Duration
}

// event publishes one campaign-level measurement decision on a replica, with
// the dispatch attempt recorded.
func (c *Campaign) event(phase, replica string, item workItem, total int, msg, errText string) {
	c.Events.Publish(eventlog.Event{
		Typ: eventlog.TypeProgress, Phase: phase,
		Run: item.run, TotalRuns: total, Attempt: item.attempt,
		Replica: replica, Message: msg, Error: errText,
	})
}

// wireReplicas hands c.Events to every replica runner without a pipeline of
// its own, so the runners' workflow events join the campaign's record. The
// returned function restores the runners' original wiring.
func (c *Campaign) wireReplicas() func() {
	prev := make([]*eventlog.Pipeline, len(c.Replicas))
	for i := range c.Replicas {
		r := c.Replicas[i].Runner
		prev[i] = r.Events
		if r.Events == nil {
			r.Events = c.Events
		}
	}
	return func() {
		for i := range c.Replicas {
			c.Replicas[i].Runner.Events = prev[i]
		}
	}
}

// heartbeat publishes periodic liveness events for one replica until ctx
// ends, then a final down event. The pos_replica_up gauge itself follows the
// worker lifecycle (see worker), so a hung worker shows up as a stale
// heartbeat while the gauge still reads 1 — exactly the signal that
// distinguishes "slow" from "gone".
func (c *Campaign) heartbeat(ctx context.Context, name string) {
	t := time.NewTicker(c.HeartbeatInterval)
	defer t.Stop()
	beat := func(msg string) {
		c.Events.Publish(eventlog.Event{
			Typ: eventlog.TypeHeartbeat, Replica: name, Run: eventlog.NoRun, Message: msg,
		})
	}
	beat("up")
	for {
		select {
		case <-ctx.Done():
			beat("down")
			return
		case <-t.C:
			beat("up")
		}
	}
}

func (c *Campaign) now() time.Time {
	if clock := c.Replicas[0].Runner.Clock; clock != nil {
		return clock()
	}
	return time.Now()
}

// validate checks the campaign's reproducibility invariants.
func (c *Campaign) validate() error {
	if len(c.Replicas) == 0 {
		return fmt.Errorf("sched: campaign needs at least one replica")
	}
	names := make(map[string]bool, len(c.Replicas))
	for i := range c.Replicas {
		rep := &c.Replicas[i]
		if rep.Runner == nil || rep.Experiment == nil {
			return fmt.Errorf("sched: replica %d needs a runner and an experiment", i)
		}
		if rep.Name == "" {
			rep.Name = fmt.Sprintf("replica%d", i)
		}
		if strings.ContainsAny(rep.Name, "/\\") {
			return fmt.Errorf("sched: replica name %q must be flat", rep.Name)
		}
		if names[rep.Name] {
			return fmt.Errorf("sched: duplicate replica name %q", rep.Name)
		}
		names[rep.Name] = true
		if err := rep.Experiment.Validate(); err != nil {
			return fmt.Errorf("sched: replica %s: %w", rep.Name, err)
		}
	}
	first := c.Replicas[0].Experiment
	firstLoop, err := core.MarshalLoopVars(first.LoopVars)
	if err != nil {
		return err
	}
	for _, rep := range c.Replicas[1:] {
		e := rep.Experiment
		if e.Name != first.Name || e.User != first.User {
			return fmt.Errorf("sched: replica %s runs %s/%s, campaign runs %s/%s — one campaign is one experiment",
				rep.Name, e.User, e.Name, first.User, first.Name)
		}
		loop, err := core.MarshalLoopVars(e.LoopVars)
		if err != nil {
			return err
		}
		if string(loop) != string(firstLoop) {
			return fmt.Errorf("sched: replica %s sweeps different loop variables — sharding would not reproduce the sequential sweep", rep.Name)
		}
		if err := sameVars(first.GlobalVars, e.GlobalVars); err != nil {
			return fmt.Errorf("sched: replica %s: %w", rep.Name, err)
		}
		if err := sameImages(first, e); err != nil {
			return fmt.Errorf("sched: replica %s: %w", rep.Name, err)
		}
	}
	return c.validateDisjointHosts()
}

func sameVars(a, b core.Vars) error {
	if len(a) != len(b) {
		return fmt.Errorf("global variables differ (%d vs %d keys)", len(b), len(a))
	}
	for k, v := range a {
		if b[k] != v {
			return fmt.Errorf("global variable %s=%q differs from %q", k, b[k], v)
		}
	}
	return nil
}

// sameImages requires the identical role→image mapping on every replica —
// the paper's condition for sharding to preserve reproducibility.
func sameImages(a, b *core.Experiment) error {
	imgs := func(e *core.Experiment) map[string]string {
		m := make(map[string]string, len(e.Hosts))
		for _, h := range e.Hosts {
			m[h.Role] = h.Image
		}
		return m
	}
	ia, ib := imgs(a), imgs(b)
	if len(ia) != len(ib) {
		return fmt.Errorf("role sets differ")
	}
	for role, img := range ia {
		got, ok := ib[role]
		if !ok {
			return fmt.Errorf("role %q missing", role)
		}
		if got != img {
			return fmt.Errorf("role %q boots image %q, campaign boots %q", role, got, img)
		}
	}
	return nil
}

// validateDisjointHosts rejects replicas that share a node on a shared
// hosttools service: their per-run scopes would fight over the binding.
func (c *Campaign) validateDisjointHosts() error {
	seen := make(map[*hosttools.Service]map[string]string)
	for _, rep := range c.Replicas {
		svc := rep.Runner.Service
		if svc == nil {
			return fmt.Errorf("sched: replica %s: runner needs a hosttools service", rep.Name)
		}
		nodes := seen[svc]
		if nodes == nil {
			nodes = make(map[string]string)
			seen[svc] = nodes
		}
		for _, n := range rep.Experiment.NodeNames() {
			if prev, ok := nodes[n]; ok {
				return fmt.Errorf("sched: node %q claimed by replicas %s and %s on the same service — replica host-sets must be disjoint", n, prev, rep.Name)
			}
			nodes[n] = rep.Name
		}
	}
	return nil
}

// manifest is the campaign's experiment-level artifact: how the sweep was
// sharded. It complements — never alters — the per-run metadata, which stays
// byte-identical to a sequential execution.
type manifest struct {
	Replicas []string `json:"replicas"`
	// Parallel is the most runs in flight: one per replica.
	Parallel  int            `json:"parallel"`
	TotalRuns int            `json:"total_runs"`
	Schedule  map[string]int `json:"runs_per_replica,omitempty"`
}

// workItem is one dispatch of a run: the run index plus which attempt this
// dispatch is.
type workItem struct {
	run     int
	attempt int
}

// campaignState is the mutable bookkeeping shared by the campaign workers.
type campaignState struct {
	mu          sync.Mutex
	records     []*core.RunRecord
	perWorker   []int
	outstanding int // runs not yet terminally resolved
	firstFail   int // lowest run index that failed terminally (fail-fast)
	active      int // workers still pulling from the queue
	quarantined []string
	queue       chan workItem
}

// resolve marks one run terminally finished. Closing the queue when the
// last run resolves releases the idle workers; no sends can follow, because
// only a worker holding an unresolved item ever re-enqueues.
func (st *campaignState) resolve(run int, rec *core.RunRecord) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.records[run] = rec
	st.outstanding--
	if st.outstanding == 0 {
		close(st.queue)
	}
}

// Run executes the campaign: prepare every replica (boot + setup, in
// parallel), then drain the run queue concurrently. It returns a summary
// equivalent to the sequential runner's — deterministic run numbering, one
// record per executed run in run order.
func (c *Campaign) Run(ctx context.Context, store *results.Store) (*core.Summary, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	logical := c.Replicas[0].Experiment
	combos, err := core.CrossProduct(logical.LoopVars)
	if err != nil {
		return nil, err
	}

	started := c.now()
	// A campaign roots its own span trace (replica lanes, per-run children)
	// unless the caller brought one; owned traces land in spans.json. A
	// queue-dispatched campaign carries its submitter's traceparent in the
	// context — the trace adopts that identity so this process's spans
	// stitch under the posctl invocation that submitted it.
	var tr *telemetry.Trace
	if telemetry.SpanFromContext(ctx) == nil && telemetry.Default.Enabled() {
		tr = telemetry.NewLinkedTrace("campaign:"+logical.Name, telemetry.PendingTraceParent(ctx))
		tr.SetProcess("controller")
		tr.SetClock(c.now)
		ctx = telemetry.ContextWithTrace(ctx, tr)
	}
	exp, err := store.CreateExperiment(logical.User, logical.Name, started)
	if err != nil {
		return nil, err
	}
	// Best-effort drain on every exit path; the success path checks the
	// flush error explicitly below.
	defer exp.Sync()
	// Span traces archive on EVERY exit path — a failed or aborted
	// campaign is precisely the one whose timeline gets post-mortemed.
	// Registered after the Sync defer, so the artifact drains to disk.
	if tr != nil {
		defer func() {
			tr.Finish()
			if data, err := tr.RenderJSON(); err == nil {
				exp.AddExperimentArtifact("spans.json", data)
			}
		}()
	}
	// The event journal lives directly under the experiment directory
	// (like .posindex, it is controller state, not a run artifact): every
	// published event is replayable after the campaign via posctl watch -dir.
	// A campaign without an attached pipeline still journals — a private
	// pipeline with no subscribers costs only the appends.
	if c.Events == nil {
		c.Events = eventlog.NewPipeline()
		defer func() { c.Events = nil }()
	}
	defer c.Events.RecordUnder(exp.Dir())()
	c.Events.Publish(eventlog.Event{
		Typ: eventlog.TypeLog, Level: "INFO", Run: eventlog.NoRun,
		Message: fmt.Sprintf("campaign started: %s, %d replicas", logical.Name, len(c.Replicas)),
	})
	// A queue-dispatched campaign journals its own admission record here,
	// after the journal attached: the queue controller's events predate
	// the journal and never reach the archive, and without this record
	// the timeline assembler cannot attribute queue wait.
	if adm, ok := eventlog.AdmissionFromContext(ctx); ok {
		attrs := map[string]string{
			"submission_id": adm.SubmissionID,
			"submitted":     adm.Submitted.UTC().Format(time.RFC3339Nano),
			"admitted":      adm.Admitted.UTC().Format(time.RFC3339Nano),
			"wait_ms":       strconv.FormatInt(adm.Wait().Milliseconds(), 10),
		}
		if adm.User != "" {
			attrs["queue_user"] = adm.User
		}
		c.Events.Publish(eventlog.Event{
			Typ: eventlog.TypeQueue, Level: "INFO", Run: eventlog.NoRun,
			Message: "queue admission", Attrs: attrs,
		})
	}
	defer func() {
		// A preempted campaign (queue cancel, controller shutdown) must
		// not journal itself as "finished" — the journal is the record
		// an operator replays to see what actually happened.
		msg := "campaign finished: " + logical.Name
		if ctx.Err() != nil {
			msg = "campaign cancelled: " + logical.Name
		}
		c.Events.Publish(eventlog.Event{
			Typ: eventlog.TypeLog, Level: "INFO", Run: eventlog.NoRun,
			Message: msg,
		})
	}()
	// Every replica's runner publishes into the campaign's record before
	// any replica starts booting.
	defer c.wireReplicas()()
	if err := core.ArchiveDefinition(logical, exp); err != nil {
		return nil, err
	}

	// Setup phase on every replica concurrently; a campaign with a broken
	// replica must fail before the first measurement run.
	sessions := make([]*core.Session, len(c.Replicas))
	prepErrs := make([]error, len(c.Replicas))
	var wg sync.WaitGroup
	for i := range c.Replicas {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep := c.Replicas[i]
			pctx, ps := telemetry.StartSpan(ctx, "prepare:"+rep.Name, "replica", rep.Name)
			sessions[i], prepErrs[i] = rep.Runner.PrepareShared(pctx, rep.Experiment, exp, rep.Name)
			ps.SetError(prepErrs[i])
			ps.End()
		}(i)
	}
	wg.Wait()
	defer func() {
		for _, sess := range sessions {
			if sess != nil {
				sess.Close()
			}
		}
	}()
	for i, err := range prepErrs {
		if err != nil {
			return nil, fmt.Errorf("sched: replica %s: %w", c.Replicas[i].Name, err)
		}
	}

	sum := &core.Summary{
		Experiment: logical.Name,
		ResultsDir: exp.Dir(),
		TotalRuns:  len(combos),
		Started:    started,
	}

	maxAttempts := c.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}

	// Shared work queue: replicas pull the next dispatch as they free up,
	// so a slow run on one replica never stalls the others. The queue is
	// buffered for every possible dispatch (each run is enqueued at most
	// MaxAttempts times), so re-enqueueing a retry never blocks a worker.
	// Each replica's worker executes one run at a time.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &campaignState{
		records:   make([]*core.RunRecord, len(combos)),
		perWorker: make([]int, len(c.Replicas)),

		outstanding: len(combos),
		firstFail:   -1,
		active:      len(sessions),
		queue:       make(chan workItem, len(combos)*maxAttempts),
	}
	for i := range combos {
		st.queue <- workItem{run: i, attempt: 1}
	}
	queueDepth.Add(float64(len(combos)))

	// Liveness probes: one heartbeat goroutine per replica for the
	// campaign's duration.
	if c.Events != nil && c.HeartbeatInterval > 0 {
		hbCtx, hbCancel := context.WithCancel(context.Background())
		var hbWg sync.WaitGroup
		defer hbWg.Wait()
		defer hbCancel()
		for i := range c.Replicas {
			hbWg.Add(1)
			go func(name string) {
				defer hbWg.Done()
				c.heartbeat(hbCtx, name)
			}(c.Replicas[i].Name)
		}
	}

	for wi, sess := range sessions {
		wg.Add(1)
		go func(wi int, sess *core.Session) {
			defer wg.Done()
			c.worker(runCtx, cancel, wi, sess, st, combos, maxAttempts)
		}(wi, sess)
	}
	wg.Wait()

	// Assemble the summary in deterministic run order.
	st.mu.Lock()
	schedule := make(map[string]int, len(c.Replicas))
	for wi, n := range st.perWorker {
		if n > 0 {
			schedule[c.Replicas[wi].Name] = n
		}
	}
	sort.Strings(st.quarantined)
	sum.Quarantined = append([]string(nil), st.quarantined...)
	allQuarantined := st.active == 0
	failIdx := st.firstFail
	for _, rec := range st.records {
		if rec == nil {
			continue // never dispatched (cancelled or failed-fast)
		}
		sum.Records = append(sum.Records, *rec)
		switch {
		case rec.Cancelled:
			sum.CancelledRuns++
		case rec.Failed:
			sum.FailedRuns++
		}
	}
	st.mu.Unlock()
	sum.Finished = c.now()

	names := make([]string, len(c.Replicas))
	for i, rep := range c.Replicas {
		names[i] = rep.Name
	}
	sort.Strings(names)
	// Cancelled or failed-fast campaigns leave undispatched items behind;
	// the queue gauge must not drift across campaigns.
	queueDepth.Add(-float64(drainQueue(st)))

	m, err := json.MarshalIndent(manifest{
		Replicas: names, Parallel: len(c.Replicas), TotalRuns: len(combos), Schedule: schedule,
	}, "", "  ")
	if err != nil {
		return sum, fmt.Errorf("sched: %w", err)
	}
	if err := exp.AddExperimentArtifact("experiment/campaign.json", append(m, '\n')); err != nil {
		return sum, err
	}
	// Commit what is still staged and write the manifest: the campaign's
	// results directory must be complete and reopenable once Run returns.
	if err := exp.Sync(); err != nil {
		return sum, err
	}

	if err := ctx.Err(); err != nil {
		return sum, err
	}
	if allQuarantined {
		return sum, fmt.Errorf("sched: all %d replicas quarantined after %d consecutive failures each — %d of %d runs incomplete",
			len(c.Replicas), c.QuarantineAfter, countNil(st.records), len(combos))
	}
	if failIdx >= 0 {
		rec := st.records[failIdx]
		return sum, fmt.Errorf("sched: run %d (%s) failed after %d attempt(s): %s", failIdx, rec.Combo.Key(), rec.Attempts, rec.Error)
	}
	return sum, nil
}

// drainQueue empties whatever the workers left behind (closed or abandoned
// queue) and reports the count, so the shared depth gauge returns to level.
func drainQueue(st *campaignState) int {
	n := 0
	for {
		select {
		case _, ok := <-st.queue:
			if !ok {
				return n
			}
			n++
		default:
			return n
		}
	}
}

func countNil(recs []*core.RunRecord) int {
	n := 0
	for _, r := range recs {
		if r == nil {
			n++
		}
	}
	return n
}

// worker is one replica's dispatch loop: pull a run, re-establish the clean
// slate when needed, execute, and either resolve the run or hand it back to
// the queue. A worker that fails QuarantineAfter consecutive dispatches
// drains itself from the campaign.
func (c *Campaign) worker(runCtx context.Context, cancel context.CancelFunc, wi int, sess *core.Session, st *campaignState, combos []core.Combination, maxAttempts int) {
	name := c.Replicas[wi].Name
	// The worker's lane span groups everything this replica executes — one
	// flamegraph row per replica in the Chrome trace rendering.
	runCtx, lane := telemetry.StartSpan(runCtx, "replica:"+name, "replica", name)
	defer lane.End()
	// The up gauge follows the worker: a quarantined or finished replica
	// reads 0 even while its heartbeat goroutine keeps ticking.
	up := replicaUp.With(name)
	up.Set(1)
	defer up.Set(0)
	dirty := false // a failed run leaves the replica's state suspect
	consec := 0
	for {
		var item workItem
		var ok bool
		select {
		case <-runCtx.Done():
			return
		case item, ok = <-st.queue:
			if !ok {
				return
			}
		}
		queueDepth.Dec()
		// Both cases of the select can be ready at once: a campaign torn
		// down while the item waited dispatches nothing, so no event
		// carries an attempt that never ran.
		if runCtx.Err() != nil {
			return
		}

		inflightRuns.Inc()
		rec, err := c.dispatch(runCtx, sess, name, item, combos, dirty)
		inflightRuns.Dec()

		// Collateral damage: the run failed only because the campaign
		// was being torn down around it. Resolve it as cancelled — it
		// neither consumes attempts nor counts against the replica.
		if rec.Failed && runCtx.Err() != nil && errors.Is(err, context.Canceled) {
			dispatchesCancelled.Inc()
			rec.Cancelled = true
			st.mu.Lock()
			st.perWorker[wi]++
			st.mu.Unlock()
			st.resolve(item.run, &rec)
			return
		}

		st.mu.Lock()
		st.perWorker[wi]++
		st.mu.Unlock()

		if !rec.Failed {
			dispatchesOK.Inc()
			dirty = false
			consec = 0
			st.resolve(item.run, &rec)
			continue
		}

		// Genuine failure: the replica is suspect until re-set-up.
		dispatchesFailed.Inc()
		dirty = true
		consec++
		terminal := item.attempt >= maxAttempts
		if !terminal {
			c.event(core.PhaseMeasurement, name, item, len(combos),
				fmt.Sprintf("attempt %d failed, requeueing: %s", item.attempt, rec.Error), rec.Error)
			retriesTotal.Inc()
			st.queue <- workItem{run: item.run, attempt: item.attempt + 1}
			queueDepth.Inc()
		} else {
			st.resolve(item.run, &rec)
		}

		if c.QuarantineAfter > 0 && consec >= c.QuarantineAfter {
			c.event(core.PhaseMeasurement, name, item, len(combos),
				fmt.Sprintf("replica quarantined after %d consecutive failures", consec), rec.Error)
			quarantinesTotal.Inc()
			lane.SetAttr("quarantined", "true")
			st.mu.Lock()
			st.quarantined = append(st.quarantined, name)
			st.active--
			lastWorker := st.active == 0
			st.mu.Unlock()
			if lastWorker {
				cancel() // nobody left to drain the queue
			}
			return
		}
		if terminal && !c.ContinueOnRunFailure {
			st.mu.Lock()
			if st.firstFail == -1 || item.run < st.firstFail {
				st.firstFail = item.run
			}
			st.mu.Unlock()
			cancel()
			return
		}
	}
}

// dispatch executes one work item on a session: clean-slate re-setup when
// the item is a retry (or the replica just failed), then the measurement
// run. It returns the run record, stamped with the dispatch attempt, plus
// the raw error for cancellation analysis. The journal is the retry record:
// the run's events carry the attempt, and the sched events around them the
// requeue and re-setup decisions. The replica runner's RunTimeout bounds
// the run.
func (c *Campaign) dispatch(runCtx context.Context, sess *core.Session, name string, item workItem, combos []core.Combination, dirty bool) (core.RunRecord, error) {
	// The paper's recovery discipline: a run is only re-executed from a
	// freshly booted, freshly set-up testbed, so the retry cannot be
	// contaminated by whatever the failure left behind.
	if item.attempt > 1 || dirty {
		if err := sess.Recover(runCtx); err != nil {
			c.event(core.PhaseSetup, name, item, len(combos),
				"clean-slate re-setup failed", err.Error())
			return core.RunRecord{
				Run: item.run, Combo: combos[item.run], Failed: true,
				Error:    fmt.Sprintf("re-setup: %s", err),
				Attempts: item.attempt,
			}, err
		}
	}

	// The run-start event is published by RunOne itself on the campaign's
	// pipeline (wireReplicas), so dispatch does not duplicate it.
	rec, err := sess.RunOne(runCtx, item.run, len(combos), item.attempt, combos[item.run])
	if err != nil && !rec.Failed {
		// Recording errors (artifact or metadata writes) that RunOne
		// reports without marking the record would otherwise count the
		// run as successful with its results missing.
		rec.Failed, rec.Error = true, err.Error()
	}
	return rec, err
}
