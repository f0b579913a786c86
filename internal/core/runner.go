package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"pos/internal/calendar"
	"pos/internal/eventlog"
	"pos/internal/hosttools"
	"pos/internal/results"
	"pos/internal/telemetry"
)

// Host is the runner's view of one experiment host. The testbed package
// implements it over the mgmt (initialization) and shell (configuration)
// interfaces; tests may implement it in memory.
type Host interface {
	// Name returns the physical node name.
	Name() string
	// SetBoot selects the live image and boot parameters.
	SetBoot(imageRef string, params map[string]string) error
	// Reboot power-cycles the node via the out-of-band interface.
	Reboot() error
	// DeployTools installs the pos utility tools after boot.
	DeployTools() error
	// Exec runs a script with the given variables, returning the captured
	// output; a failing script returns both output and an error.
	Exec(ctx context.Context, script string, env map[string]string) (string, error)
}

// Phase names for progress reporting.
const (
	PhaseSetup       = "setup"
	PhaseMeasurement = "measurement"
	PhaseEvaluation  = "evaluation"
)

// RunRecord summarizes one measurement run.
type RunRecord struct {
	Run      int
	Combo    Combination
	Failed   bool
	Error    string
	Duration time.Duration
	// Attempts counts how many times the run was dispatched (1 without
	// retries). It lives in the summary and, for a retried run, on the run's
	// events in the journal — never in the run's metadata.json: retries must
	// not be observable in the per-run artifacts.
	Attempts int
	// Cancelled marks a run that failed only because the campaign was
	// torn down around it (fail-fast or context cancellation), not
	// because its own measurement misbehaved.
	Cancelled bool
}

// Summary is the outcome of a workflow execution.
type Summary struct {
	Experiment string
	ResultsDir string
	TotalRuns  int
	// FailedRuns counts runs whose own measurement failed terminally.
	// Runs cut down collaterally by fail-fast or cancellation are
	// CancelledRuns, so post-mortems can tell the culprit from the
	// casualties.
	FailedRuns    int
	CancelledRuns int
	// Quarantined lists replicas a campaign drained after repeated
	// failures (campaign executions only).
	Quarantined []string
	Records     []RunRecord
	Started     time.Time
	Finished    time.Time
}

// Runner executes experiments against a set of hosts following the pos
// workflow. One Runner serves one experiment execution at a time; several
// Runners over disjoint host-sets (replica testbeds) may execute runs of the
// same campaign concurrently — see internal/sched.
type Runner struct {
	// Hosts maps physical node names to their control handles.
	Hosts map[string]Host
	// Service is the controller-side variable/barrier/upload endpoint
	// shared with the hosts' deployed tools. Runners of replica testbeds
	// may share one Service: per-run state lives in hosttools Scopes
	// bound to each replica's nodes, never in service-wide state.
	Service *hosttools.Service
	// Calendar, when non-nil, enforces allocation before any node is
	// touched.
	Calendar *calendar.Calendar
	// ContinueOnRunFailure keeps sweeping after a failed measurement run
	// (the run is recorded as failed either way).
	ContinueOnRunFailure bool
	// RebootBetweenRuns reboots and re-configures every host before each
	// measurement run — maximal isolation at heavy time cost; the
	// default (false) matches the paper's workflow of one boot per
	// experiment.
	RebootBetweenRuns bool
	// RunTimeout bounds each measurement run (all hosts). A hung
	// measurement script then fails its run instead of stalling the
	// whole campaign; recoverability (R3) handles the wedged host.
	// Zero means no limit.
	RunTimeout time.Duration
	// Clock supplies timestamps (defaults to time.Now); tests pin it.
	Clock func() time.Time
	// Events, when non-nil, receives the run's execution record: every
	// workflow step as a progress event plus captured host command output.
	// Observers subscribe to it (eventlog.Pipeline.Watch); publication never
	// blocks on them, so the measurement hot path is indifferent to stalled
	// observers. A fresh experiment (Run, Prepare) journals the pipeline
	// under its events/ directory while the session lasts, so the pipeline
	// must belong to this execution: to feed a shared stream, forward a
	// private pipeline into it with ForwardTo. Without a pipeline nothing is
	// published or journaled.
	Events *eventlog.Pipeline
}

func (r *Runner) now() time.Time {
	if r.Clock != nil {
		return r.Clock()
	}
	return time.Now()
}

// event publishes one workflow step as a progress event; a no-op without a
// pipeline. Replica names the executing replica ("" outside campaigns) and
// Node the host of a per-host step.
func (r *Runner) event(ev eventlog.Event) {
	if r.Events == nil {
		return
	}
	ev.Typ = eventlog.TypeProgress
	if ev.TotalRuns == 0 {
		ev.Run = eventlog.NoRun
	}
	r.Events.Publish(ev)
}

// execEventLimit bounds how much captured command output is inlined into one
// exec event; the complete output always lands in the results store.
const execEventLimit = 2048

// publishExec streams one host command's captured stdout+stderr. Pass
// total == 0 for setup-phase executions (no run attached).
func (r *Runner) publishExec(replica, node, phase string, runIdx, total int, out string) {
	if r.Events == nil {
		return
	}
	msg := out
	attrs := map[string]string{"bytes": strconv.Itoa(len(out))}
	if len(msg) > execEventLimit {
		msg = msg[:execEventLimit]
		attrs["truncated"] = "true"
	}
	run := runIdx
	if total == 0 {
		run = eventlog.NoRun
	}
	r.Events.Publish(eventlog.Event{
		Typ: eventlog.TypeExec, Phase: phase,
		Run: run, TotalRuns: total,
		Replica: replica, Node: node,
		Message: msg, Attrs: attrs,
	})
}

// ensureTrace installs a span trace on ctx when telemetry is enabled and the
// caller did not bring one. The returned trace is non-nil only when this call
// owns it — the owner finishes it and archives the spans.json artifact. A
// context carrying a remote traceparent (a queue dispatch, an API request)
// links the new trace under that remote span instead of rooting fresh.
func (r *Runner) ensureTrace(ctx context.Context, name string) (context.Context, *telemetry.Trace) {
	if telemetry.SpanFromContext(ctx) != nil || !telemetry.Default.Enabled() {
		return ctx, nil
	}
	tr := telemetry.NewLinkedTrace(name, telemetry.PendingTraceParent(ctx))
	tr.SetProcess("runner")
	tr.SetClock(r.now)
	return telemetry.ContextWithTrace(ctx, tr), tr
}

// archiveSpans finishes an owned trace and records it as the experiment's
// spans.json artifact, next to the events/ journal. Best effort: a failed
// span archive never fails the experiment that produced it.
func archiveSpans(tr *telemetry.Trace, exp *results.Experiment) {
	tr.Finish()
	data, err := tr.RenderJSON()
	if err != nil {
		return
	}
	exp.AddExperimentArtifact("spans.json", data)
}

// Run executes the full experiment workflow of Fig. 2 — allocate, configure,
// boot, setup, measurement sweep — recording every artifact into exp's
// results experiment. The evaluation phase is performed separately on the
// recorded results (eval and plot packages); by the time Run returns, the
// results directory is complete and self-describing.
func (r *Runner) Run(ctx context.Context, e *Experiment, store *results.Store) (*Summary, error) {
	started := r.now()
	ctx, tr := r.ensureTrace(ctx, "experiment:"+e.Name)
	sess, err := r.Prepare(ctx, e, store)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if tr != nil {
		// Runs before the deferred Close above, so the artifact is synced.
		defer archiveSpans(tr, sess.Results())
	}

	combos, err := CrossProduct(e.LoopVars)
	if err != nil {
		return nil, err
	}
	sum := &Summary{
		Experiment: e.Name,
		ResultsDir: sess.Results().Dir(),
		TotalRuns:  len(combos),
		Started:    started,
	}
	for runIdx, combo := range combos {
		if err := ctx.Err(); err != nil {
			return sum, err
		}
		rec, err := sess.RunOne(ctx, runIdx, len(combos), 1, combo)
		if err != nil && !rec.Failed {
			// Recording errors (artifact or metadata writes) fail the
			// run even when the measurement itself succeeded — a run
			// whose results are not on disk did not happen.
			rec.Failed, rec.Error = true, err.Error()
		}
		sum.Records = append(sum.Records, rec)
		if rec.Failed {
			sum.FailedRuns++
			if !r.ContinueOnRunFailure {
				sum.Finished = r.now()
				return sum, fmt.Errorf("core: run %d (%s) failed: %s", runIdx, combo.Key(), rec.Error)
			}
		}
	}
	sum.Finished = r.now()
	// Commit what is still staged and write the manifest: by the time Run
	// returns, the results directory must be complete and reopenable.
	if err := sess.Results().Sync(); err != nil {
		return sum, err
	}
	return sum, nil
}

// Session is a prepared experiment execution: nodes allocated and booted,
// tools deployed, setup scripts finished. Measurement runs are dispatched
// onto it one at a time via RunOne; the campaign scheduler holds one Session
// per replica testbed and feeds them concurrently.
type Session struct {
	r       *Runner
	e       *Experiment
	exp     *results.Experiment
	hosts   []Host
	nodes   []string
	replica string
	scope   *hosttools.Scope
	release func()
	once    sync.Once
}

// Prepare performs the setup phase of the workflow against a fresh results
// experiment: allocation, variable loading, boot, tool deployment, and the
// setup scripts. With an Events pipeline attached, the experiment journals
// it under events/ from before the boot until Close. The caller must Close
// the session to release the calendar allocation.
func (r *Runner) Prepare(ctx context.Context, e *Experiment, store *results.Store) (*Session, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if r.Service == nil {
		return nil, errors.New("core: runner needs a hosttools service")
	}
	release, err := r.allocate(e)
	if err != nil {
		return nil, err
	}
	exp, err := store.CreateExperiment(e.User, e.Name, r.now())
	if err != nil {
		release()
		return nil, err
	}
	if err := ArchiveDefinition(e, exp); err != nil {
		exp.Sync()
		release()
		return nil, err
	}
	if r.Events != nil {
		// The session owns the journal: release stops it after the
		// allocation is returned, on Close or a failed setup alike.
		stopJournal := r.Events.RecordUnder(exp.Dir())
		unjournaled := release
		release = func() { unjournaled(); stopJournal() }
	}
	sess, err := r.prepare(ctx, e, exp, "", release, true)
	if err != nil {
		exp.Sync()
		release()
		return nil, err
	}
	return sess, nil
}

// PrepareShared is Prepare against an existing results experiment shared by
// several replica testbeds of one campaign. The experiment definition is not
// re-archived (the campaign archives it once); setup outputs are namespaced
// under the replica name so identically named nodes of different replicas
// cannot clobber each other.
func (r *Runner) PrepareShared(ctx context.Context, e *Experiment, exp *results.Experiment, replica string) (*Session, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if r.Service == nil {
		return nil, errors.New("core: runner needs a hosttools service")
	}
	release, err := r.allocate(e)
	if err != nil {
		return nil, err
	}
	sess, err := r.prepare(ctx, e, exp, replica, release, false)
	if err != nil {
		release()
		return nil, err
	}
	return sess, nil
}

// allocate reserves the experiment's nodes on the calendar, returning the
// release function (a no-op without a calendar). A multi-user testbed must
// refuse the experiment before touching anyone else's nodes.
func (r *Runner) allocate(e *Experiment) (func(), error) {
	if r.Calendar == nil {
		return func() {}, nil
	}
	start := r.now()
	alloc, err := r.Calendar.Allocate(e.User, e.NodeNames(), start, start.Add(e.ReservationDuration()))
	if err != nil {
		return nil, fmt.Errorf("core: allocation: %w", err)
	}
	return func() { r.Calendar.Release(e.User, alloc.ID) }, nil
}

func (r *Runner) prepare(ctx context.Context, e *Experiment, exp *results.Experiment, replica string, release func(), clearGlobal bool) (*Session, error) {
	hosts := make([]Host, len(e.Hosts))
	for i, spec := range e.Hosts {
		h, ok := r.Hosts[spec.Node]
		if !ok {
			return nil, fmt.Errorf("core: node %q not present in this testbed", spec.Node)
		}
		hosts[i] = h
	}
	sess := &Session{
		r:       r,
		e:       e,
		exp:     exp,
		hosts:   hosts,
		nodes:   e.NodeNames(),
		replica: replica,
		release: release,
	}

	// The session scope holds the nodes between measurement runs: setup
	// barriers stay private to this replica, and uploads outside a run
	// (stragglers included) are refused instead of landing in some other
	// run's directory.
	scopeID := "session"
	if replica != "" {
		scopeID = "session:" + replica
	}
	sess.scope = r.Service.NewScope(scopeID, nil)
	sess.scope.Bind(sess.nodes...)

	// Load variables: global and loop scopes on the service, local per
	// host; boot configuration per host. Replicas sharing a Service only
	// overwrite the global scope (campaigns require identical global
	// vars), never clear it while a sibling replica may be reading.
	if clearGlobal {
		r.Service.ClearScope(hosttools.ScopeGlobal)
	}
	for k, v := range e.GlobalVars {
		r.Service.SetVar(hosttools.ScopeGlobal, k, v)
	}
	for i, spec := range e.Hosts {
		r.Service.ClearScope(spec.Node)
		for k, v := range spec.LocalVars {
			r.Service.SetVar(spec.Node, k, v)
		}
		if err := hosts[i].SetBoot(spec.Image, spec.BootParams); err != nil {
			sess.scope.Close()
			return nil, fmt.Errorf("core: %s: %w", spec.Node, err)
		}
	}

	// Boot all hosts in parallel, then deploy the utility tools.
	r.event(eventlog.Event{Phase: PhaseSetup, Replica: replica, Message: "booting hosts"})
	bootStart := r.now()
	bctx, bootSpan := telemetry.StartSpan(ctx, "boot", "replica", replica)
	if err := r.forEachHost(hosts, func(h Host) error {
		_, hs := telemetry.StartSpan(bctx, "boot:"+h.Name())
		err := h.Reboot()
		if err == nil {
			err = h.DeployTools()
		}
		hs.SetError(err)
		hs.End()
		return err
	}); err != nil {
		bootSpan.SetError(err)
		bootSpan.End()
		sess.scope.Close()
		return nil, fmt.Errorf("core: boot: %w", err)
	}
	bootSpan.End()
	bootSeconds.Observe(r.now().Sub(bootStart).Seconds())

	// Execute setup scripts in parallel; pos waits for every host to
	// finish its setup before the first measurement run starts. The steps
	// are announced in host order before the fan-out, so the record of a
	// rerun is byte-identical.
	setupStart := r.now()
	sctx, setupSpan := telemetry.StartSpan(ctx, "setup", "replica", replica)
	for _, spec := range e.Hosts {
		r.event(eventlog.Event{Phase: PhaseSetup, Replica: replica, Node: spec.Node, Message: "running setup script"})
	}
	setupOutputs := make([]string, len(hosts))
	if err := r.forEachHostIndexed(hosts, func(i int, h Host) error {
		spec := e.Hosts[i]
		env := r.runEnv(e, spec, nil)
		_, hs := telemetry.StartSpan(sctx, "setup:"+spec.Node)
		out, err := h.Exec(sctx, spec.Setup, env)
		hs.SetError(err)
		hs.End()
		setupOutputs[i] = out
		return err
	}); err != nil {
		setupSpan.SetError(err)
		setupSpan.End()
		sess.archiveSetupOutputs(setupOutputs)
		sess.scope.Close()
		return nil, fmt.Errorf("core: setup phase: %w", err)
	}
	setupSpan.End()
	setupSeconds.Observe(r.now().Sub(setupStart).Seconds())
	if err := sess.archiveSetupOutputs(setupOutputs); err != nil {
		sess.scope.Close()
		return nil, err
	}
	return sess, nil
}

// Results exposes the results experiment the session records into.
func (s *Session) Results() *results.Experiment { return s.exp }

// Replica returns the session's replica name ("" outside campaigns).
func (s *Session) Replica() string { return s.replica }

// Close releases the calendar allocation, detaches the session's nodes,
// and syncs the results experiment (best effort — Run reports sync errors
// on its success path). It is idempotent.
func (s *Session) Close() {
	s.once.Do(func() {
		s.scope.Close()
		s.release()
		s.exp.Sync()
	})
}

// RunOne executes a single measurement run across the session's hosts as
// the given dispatch attempt (1 for the first). All per-run state — loop
// variables, upload routing, barrier namespace — lives in a run-scoped
// hosttools handle, so sessions over disjoint host-sets can have runs in
// flight concurrently without sharing any mutable state.
//
// The run's events carry the attempt only when it is a retry, so the journal
// of a first attempt reads the same with or without a retry policy.
func (s *Session) RunOne(ctx context.Context, runIdx, total, attempt int, combo Combination) (RunRecord, error) {
	r := s.r
	comboKey, runNo := combo.Key(), strconv.Itoa(runIdx)
	retry := 0
	if attempt > 1 {
		retry = attempt
	}
	r.event(eventlog.Event{Phase: PhaseMeasurement, Run: runIdx, TotalRuns: total, Attempt: retry, Replica: s.replica, Message: comboKey})
	rec := RunRecord{Run: runIdx, Combo: combo, Attempts: attempt}
	runStart := r.now()
	// Host-condition attribution: sample the Go runtime at the run's edges
	// and archive the delta as resources.json next to metadata.json. Gated
	// on the telemetry kill-switch — differential harnesses that need
	// byte-identical artifact trees disable telemetry and skip the
	// inherently non-deterministic record.
	var startRes telemetry.RuntimeStats
	if telemetry.Default.Enabled() {
		startRes = telemetry.ReadRuntimeStats()
	}
	ctx, runSpan := telemetry.StartSpan(ctx, "run "+runNo,
		"combo", comboKey, "replica", s.replica)
	defer runSpan.End()

	// The per-run handle: loop variables and upload routing for exactly
	// this run. The deferred rebind runs before the deferred Close, so a
	// host upload arriving after the run (a straggler past the timeout)
	// hits the session scope and is refused — it can never land in a
	// successor run's directory.
	sink := hosttools.UploaderFunc(func(nodeName, artifact string, data []byte) error {
		return s.exp.AddRunArtifact(runIdx, nodeName, artifact, data)
	})
	scope := r.Service.NewScope("run"+runNo, sink)
	for k, v := range combo {
		scope.SetVar(k, v)
	}
	defer scope.Close()
	defer s.scope.Bind(s.nodes...)
	scope.Bind(s.nodes...)

	if r.RebootBetweenRuns {
		if err := r.rebootAndResetup(ctx, s.e, s.hosts); err != nil {
			rec.Failed, rec.Error = true, err.Error()
			rec.Duration = r.now().Sub(runStart)
			s.writeResources(runIdx, startRes)
			s.writeMeta(runIdx, combo, runStart, rec)
			return rec, err
		}
	}

	if r.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.RunTimeout)
		defer cancel()
	}
	var mu sync.Mutex
	outputs := make([]string, len(s.hosts))
	runErr := r.forEachHostIndexed(s.hosts, func(i int, h Host) error {
		spec := s.e.Hosts[i]
		env := r.runEnv(s.e, spec, combo)
		env["RUN"] = runNo
		_, es := telemetry.StartSpan(ctx, "exec:"+spec.Node, "phase", PhaseMeasurement)
		out, err := h.Exec(ctx, spec.Measurement, env)
		es.SetError(err)
		es.End()
		if err != nil {
			// The partners' barriers in this run can no longer fill:
			// release them now rather than at the barrier timeout.
			scope.Abort(fmt.Errorf("%s: %w", spec.Node, err))
		}
		mu.Lock()
		outputs[i] = out
		mu.Unlock()
		return err
	})
	// Recording failures (artifact writes) must not short-circuit: the run
	// still gets its metadata, marked failed — a run directory without
	// metadata.json would be invisible to evaluation and unreproducible.
	var recordErr error
	for i, spec := range s.e.Hosts {
		r.publishExec(s.replica, spec.Node, PhaseMeasurement, runIdx, total, outputs[i])
		if err := s.exp.AddRunArtifact(runIdx, spec.Node, "measurement.out", []byte(outputs[i])); err != nil && recordErr == nil {
			recordErr = err
		}
	}
	if runErr == nil {
		runErr = recordErr
	}
	if runErr != nil {
		rec.Failed, rec.Error = true, runErr.Error()
	}
	rec.Duration = r.now().Sub(runStart)
	// resources.json before metadata.json: the metadata commits the run's
	// directory, and a file written after it is a rewrite of its own.
	s.writeResources(runIdx, startRes)
	if err := s.writeMeta(runIdx, combo, runStart, rec); err != nil {
		if runErr == nil {
			rec.Failed, rec.Error = true, err.Error()
			runErr = err
		}
	}
	measurementSeconds.Observe(rec.Duration.Seconds())
	if runErr != nil {
		runsFailed.Inc()
		runSpan.SetError(runErr)
		r.event(eventlog.Event{Phase: PhaseMeasurement, Run: runIdx, TotalRuns: total, Attempt: retry,
			Replica: s.replica, Message: "run failed: " + comboKey, Error: rec.Error})
	} else {
		runsOK.Inc()
	}
	return rec, runErr
}

// Recover re-establishes the clean-slate state of the session's hosts: every
// host is rebooted from its live image, gets the tools re-deployed, and runs
// its setup script again — the paper's answer to a misbehaving run. The
// campaign scheduler calls it before re-dispatching a failed run, so a retry
// executes on exactly the state a fresh experiment would see.
func (s *Session) Recover(ctx context.Context) error {
	s.r.event(eventlog.Event{Phase: PhaseSetup, Replica: s.replica, Message: "clean-slate re-setup"})
	start := s.r.now()
	ctx, span := telemetry.StartSpan(ctx, "re-setup", "replica", s.replica)
	err := s.r.rebootAndResetup(ctx, s.e, s.hosts)
	span.SetError(err)
	span.End()
	resetupSeconds.Observe(s.r.now().Sub(start).Seconds())
	return err
}

// writeResources archives the run's host-condition delta as resources.json.
// Best effort by design: resource attribution must never fail the run it
// attributes, and it is skipped entirely (zero start sample) when telemetry
// is disabled.
func (s *Session) writeResources(runIdx int, start telemetry.RuntimeStats) {
	if start.At.IsZero() || !telemetry.Default.Enabled() {
		return
	}
	delta := start.DeltaTo(telemetry.ReadRuntimeStats())
	data, err := delta.AppendIndentJSON(make([]byte, 0, 768))
	if err != nil {
		return
	}
	s.exp.WriteRunResources(runIdx, append(data, '\n'))
}

func (s *Session) writeMeta(runIdx int, combo Combination, start time.Time, rec RunRecord) error {
	return s.exp.WriteRunMeta(results.RunMeta{
		Run:        runIdx,
		LoopVars:   combo,
		StartedAt:  start,
		FinishedAt: s.r.now(),
		Failed:     rec.Failed,
		Error:      rec.Error,
	})
}

// rebootAndResetup re-establishes the clean-slate state before a run.
func (r *Runner) rebootAndResetup(ctx context.Context, e *Experiment, hosts []Host) error {
	return r.forEachHostIndexed(hosts, func(i int, h Host) error {
		if err := h.Reboot(); err != nil {
			return err
		}
		if err := h.DeployTools(); err != nil {
			return err
		}
		spec := e.Hosts[i]
		_, err := h.Exec(ctx, spec.Setup, r.runEnv(e, spec, nil))
		return err
	})
}

// runEnv merges the variable scopes for one host with pos precedence:
// global < local < loop.
func (r *Runner) runEnv(e *Experiment, spec HostSpec, combo Combination) map[string]string {
	env := Merge(e.GlobalVars, spec.LocalVars, Vars(combo))
	env["ROLE"] = spec.Role
	env["NODE"] = spec.Node
	return env
}

// ArchiveDefinition stores the experiment's scripts and variable files —
// the artifacts others need to reproduce it. The sequential runner archives
// on Prepare; a campaign archives the logical definition exactly once.
func ArchiveDefinition(e *Experiment, exp *results.Experiment) error {
	global, err := json.MarshalIndent(e.GlobalVars, "", "  ")
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := exp.AddExperimentArtifact("experiment/global-vars.json", append(global, '\n')); err != nil {
		return err
	}
	loop, err := MarshalLoopVars(e.LoopVars)
	if err != nil {
		return err
	}
	if err := exp.AddExperimentArtifact("experiment/loop-variables.json", loop); err != nil {
		return err
	}
	for _, spec := range e.Hosts {
		base := "experiment/" + spec.Role + "/"
		local, err := json.MarshalIndent(spec.LocalVars, "", "  ")
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		files := map[string][]byte{
			base + "local-vars.json": append(local, '\n'),
			base + "setup.sh":        []byte(spec.Setup),
			base + "measurement.sh":  []byte(spec.Measurement),
		}
		for name, data := range files {
			if err := exp.AddExperimentArtifact(name, data); err != nil {
				return err
			}
		}
	}
	binding := make(map[string]string, len(e.Hosts))
	for _, spec := range e.Hosts {
		binding[spec.Role] = spec.Node
	}
	b, err := json.MarshalIndent(binding, "", "  ")
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return exp.AddExperimentArtifact("experiment/topology.json", append(b, '\n'))
}

func (s *Session) archiveSetupOutputs(outputs []string) error {
	prefix := "setup/"
	if s.replica != "" {
		prefix = "setup/" + s.replica + "/"
	}
	for i, spec := range s.e.Hosts {
		s.r.publishExec(s.replica, spec.Node, PhaseSetup, 0, 0, outputs[i])
		if err := s.exp.AddExperimentArtifact(prefix+spec.Node+".out", []byte(outputs[i])); err != nil {
			return err
		}
	}
	return nil
}

// forEachHost runs fn for every host concurrently, returning the first error.
func (r *Runner) forEachHost(hosts []Host, fn func(Host) error) error {
	return r.forEachHostIndexed(hosts, func(_ int, h Host) error { return fn(h) })
}

func (r *Runner) forEachHostIndexed(hosts []Host, fn func(int, Host) error) error {
	errs := make([]error, len(hosts))
	var wg sync.WaitGroup
	for i, h := range hosts {
		wg.Add(1)
		go func(i int, h Host) {
			defer wg.Done()
			if err := fn(i, h); err != nil {
				errs[i] = fmt.Errorf("%s: %w", h.Name(), err)
			}
		}(i, h)
	}
	wg.Wait()
	return errors.Join(errs...)
}
