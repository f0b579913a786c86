package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"pos/internal/api"
	"pos/internal/casestudy"
	"pos/internal/eventlog"
	"pos/internal/queue"
	"pos/internal/results"
	"pos/internal/sched"
	"pos/internal/testbed"
)

// queueTenants is the queue-submitted variant of the end-to-end figure: two
// tenants over real loopback HTTP against the durable campaign queue on a
// four-node calendar. Every campaign asks for all four nodes, so campaigns
// run one at a time behind a seven-deep queue and wait ≈ 3–4 × run. api,
// queue (journal, fair-share admission), calendar, the two-replica sched
// dispatch and eventlog forwarding dominate; the data plane is 8 short runs.
type queueTenants struct {
	*oracle
	seed    uint64
	dir     string
	tb      *testbed.Testbed
	srv     *api.Server
	store   *results.Store
	events  *eventlog.Pipeline
	q       *queue.Controller
	qcfg    queue.Config
	tenants [2]*tenant
	// builds holds, per campaign name, the launcher's own stamps (replica
	// build and close times) until the submitting tenant collects them.
	builds sync.Map
}

type tenant struct {
	user   string
	client *api.Client
	n      int
}

const (
	burstCampaigns = 4
	pollInterval   = time.Millisecond
)

var queueNodes = []string{"n1", "n2", "n3", "n4"}

func (w *queueTenants) steps() [3]string { return [3]string{"submit", "wait", "run"} }
func (w *queueTenants) warmup() int      { return 12 }
func (w *queueTenants) clients() int     { return len(w.tenants) }

func (w *queueTenants) setup(seed uint64, dir string) (err error) {
	w.seed, w.dir = seed, dir
	if w.oracle, err = newOracle("queue_tenants", seed, true); err != nil {
		return err
	}
	w.tb = testbed.New()
	for _, n := range queueNodes {
		if _, err := w.tb.AddNode(n); err != nil {
			return err
		}
	}
	if w.srv, err = api.Serve(w.tb); err != nil {
		return err
	}
	if w.store, err = results.NewStore(filepath.Join(dir, "store")); err != nil {
		return err
	}
	w.events = eventlog.NewPipeline()
	w.srv.SetEvents(w.events)
	w.srv.SetResults(w.store)
	qdir, err := w.store.ControlDir("queue")
	if err != nil {
		return err
	}
	w.qcfg = queue.Config{Dir: qdir, Calendar: w.tb.Calendar, Events: w.events, Launch: w.launch}
	if w.q, err = queue.Open(w.qcfg); err != nil {
		return err
	}
	w.srv.SetQueue(w.q)
	for i := range w.tenants {
		w.tenants[i] = &tenant{user: fmt.Sprintf("tenant%d", i), client: api.NewClient(w.srv.Addr())}
	}
	return nil
}

// launch is the spec path of `posctl serve`'s demo launcher: each admitted
// campaign sweeps sizes {64,1500} × rates {10k…40k} over two fresh vpos
// replicas into the shared store.
func (w *queueTenants) launch(ctx context.Context, sub queue.Submission, events *eventlog.Pipeline) error {
	cfg := casestudy.SweepConfig{
		Sizes:      []int{64, 1500},
		RatesPPS:   []int{10_000, 20_000, 30_000, 40_000},
		RuntimeSec: 1,
		User:       sub.User,
	}
	stamps := map[string]float64{}
	start := time.Now()
	topos, err := casestudy.NewReplicas(casestudy.Virtual, 2, casestudy.WithSeed(w.seed))
	if err != nil {
		return err
	}
	stamps["casestudy.build_ms"] = ms(time.Since(start))
	defer func() {
		start := time.Now()
		for _, t := range topos {
			t.Close()
		}
		stamps["casestudy.close_ms"] = ms(time.Since(start))
		w.builds.Store(sub.Name, stamps)
	}()
	reps := casestudy.Replicas(topos, cfg)
	for i := range reps {
		reps[i].Experiment.Name = sub.Name
	}
	c := &sched.Campaign{Replicas: reps, Events: events, HeartbeatInterval: 2 * time.Second}
	sum, err := c.Run(ctx, w.store)
	if err != nil {
		return err
	}
	if sum.TotalRuns != 8 || sum.FailedRuns != 0 {
		return fmt.Errorf("campaign %s: %d runs, %d failed", sub.Name, sum.TotalRuns, sum.FailedRuns)
	}
	return nil
}

// finish replays the run's final journal once: restart-recovery time against
// the journal this run grew.
func (w *queueTenants) finish() map[string]float64 {
	out := map[string]float64{}
	submitted := 0
	for _, t := range w.tenants {
		submitted += t.n
	}
	if info, err := os.Stat(filepath.Join(w.qcfg.Dir, "queue.jsonl")); err == nil && submitted > 0 {
		out["queue.journal_bytes_per_op"] = float64(info.Size()) / float64(submitted)
	}
	if err := w.q.Close(); err != nil {
		return out
	}
	start := time.Now()
	q, err := queue.Open(w.qcfg)
	if err != nil {
		return out
	}
	out["queue.replay_ms"] = ms(time.Since(start))
	w.q = q
	w.srv.SetQueue(q)
	return out
}

func (w *queueTenants) teardown() {
	if w.q != nil {
		w.q.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.tb != nil {
		w.tb.Close()
	}
	os.RemoveAll(w.dir)
}

// flight is one submitted campaign a tenant is waiting on.
type flight struct {
	name     string
	id       int
	root     int // op span
	t0, t1   time.Time
	observed time.Time
	view     api.CampaignView
	polls    int
	err      error
}

func (w *queueTenants) burst(client int, tr *tracer) burstResult {
	t := w.tenants[client]
	var fl [burstCampaigns]flight
	for i := range fl {
		f := &fl[i]
		f.name = fmt.Sprintf("c%d-%06d", client, t.n)
		t.n++
		f.t0 = time.Now()
		view, err := t.client.SubmitCampaign(api.CampaignRequest{
			User: t.user, Name: f.name, Nodes: queueNodes, Minutes: 1,
		})
		f.t1 = time.Now()
		f.id, f.err = view.ID, err
		f.root = tr.add("op", tr.op+i, -1, f.t0, f.t0)
		tr.add("api.SubmitCampaign", tr.op+i, f.root, f.t0, f.t1)
	}
	for pending := true; pending; {
		pending = false
		for i := range fl {
			f := &fl[i]
			if f.err != nil || !f.observed.IsZero() {
				continue
			}
			p0 := time.Now()
			view, err := t.client.Campaign(f.id)
			p1 := time.Now()
			tr.add("api.Campaign", tr.op+i, f.root, p0, p1)
			f.polls++
			switch {
			case err != nil:
				f.err = err
			case view.State == string(queue.StateDone):
				f.view, f.observed = view, p1
				if f.root >= 0 {
					tr.spans[f.root].End = int64(p1.Sub(tr.t0))
				}
			case view.State == string(queue.StateFailed) || view.State == string(queue.StateCancelled):
				f.err = fmt.Errorf("campaign %s %s: %s", f.name, view.State, view.Error)
			default:
				pending = true
			}
		}
		if pending {
			s0 := time.Now()
			time.Sleep(pollInterval)
			tr.add("harness.poll_sleep", -1, -1, s0, time.Now())
		}
	}

	houseStart := time.Now()
	out := burstResult{ops: make([]opResult, len(fl))}
	for i := range fl {
		f := &fl[i]
		if f.err == nil {
			out.ops[i], f.err = w.verify(t, f)
		}
		if f.err != nil {
			out.ops[i] = opResult{err: f.err}
		}
	}
	out.house = time.Since(houseStart)
	return out
}

// verify turns a finished campaign into an op. The steps partition POST
// start → observed done: the submit RPC, the wait until admission, and the
// rest. The campaign's own stamps feed the queue and sched layer metrics.
func (w *queueTenants) verify(t *tenant, f *flight) (opResult, error) {
	admitted := f.view.Admitted
	if admitted.Before(f.t1) {
		admitted = f.t1
	}
	res := opResult{
		total: f.observed.Sub(f.t0),
		steps: [3]time.Duration{f.t1.Sub(f.t0), admitted.Sub(f.t1), f.observed.Sub(admitted)},
		layer: map[string]float64{
			"queue.wait_ms":     ms(f.view.Admitted.Sub(f.view.Submitted)),
			"sched.campaign_ms": ms(f.view.Finished.Sub(f.view.Admitted)),
			"api.polls":         float64(f.polls),
		},
	}
	if stamps, ok := w.builds.LoadAndDelete(f.name); ok {
		for k, v := range stamps.(map[string]float64) {
			res.layer[k] = v
		}
	}
	ids, err := w.store.ListExperiments(t.user, f.name)
	if err != nil || len(ids) != 1 {
		return res, fmt.Errorf("campaign %s: %d result trees, %v", f.name, len(ids), err)
	}
	exp, err := w.store.OpenExperiment(t.user, f.name, ids[0])
	if err != nil {
		return res, err
	}
	runs, err := exp.Runs()
	if err != nil || len(runs) != 8 {
		return res, fmt.Errorf("campaign %s: %d runs recorded, %v", f.name, len(runs), err)
	}
	// Which replica executed a run is the dispatcher's choice, so the
	// per-run logs are not pinned; the run numbering, loop variables and
	// outcomes are.
	h := newHasher()
	for _, run := range runs {
		m, err := exp.ReadRunMeta(run)
		if err != nil {
			return res, err
		}
		h.meta(m)
	}
	res.digest = h.sum()
	return res, w.check(res.digest)
}
