// Package vpos implements the virtual-testbed service the paper operates at
// virtualtestbed.net.in.tum.de: a web service where researchers create
// disposable vpos instances "with a single click", run the case-study
// experiment inside them, and fetch the results — no own infrastructure
// required. Each instance is a complete virtual testbed (two nodes, a
// virtualized DuT model, its own results tree); experiments executed in an
// instance use exactly the same definition that runs on the hardware
// testbed, which is the property the service exists to demonstrate.
package vpos

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pos/internal/casestudy"
	"pos/internal/core"
	"pos/internal/eventlog"
	"pos/internal/results"
	"pos/internal/sim"
)

// Status of an instance.
type Status string

// Instance lifecycle states.
const (
	// StatusReady means the instance is idle and can run an experiment.
	StatusReady Status = "ready"
	// StatusRunning means an experiment is executing.
	StatusRunning Status = "running"
	// StatusDestroyed marks a torn-down instance.
	StatusDestroyed Status = "destroyed"
)

// RunInfo summarizes the last experiment execution in an instance.
type RunInfo struct {
	Experiment string    `json:"experiment"`
	TotalRuns  int       `json:"total_runs"`
	FailedRuns int       `json:"failed_runs"`
	ResultsDir string    `json:"results_dir"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	Error      string    `json:"error,omitempty"`
}

// Instance is one disposable virtual testbed.
type Instance struct {
	ID      string    `json:"id"`
	Created time.Time `json:"created"`
	Nodes   []string  `json:"nodes"`

	mu      sync.Mutex
	status  Status
	lastRun *RunInfo
	topo    *casestudy.Topology
	store   *results.Store
}

// Status returns the instance's lifecycle state.
func (i *Instance) Status() Status {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.status
}

// LastRun returns the last execution summary, if any.
func (i *Instance) LastRun() *RunInfo {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.lastRun == nil {
		return nil
	}
	cp := *i.lastRun
	return &cp
}

// Manager owns the service's instances.
type Manager struct {
	// BaseDir roots each instance's results tree.
	baseDir string
	// Seed feeds instance jitter seeds (incremented per instance so
	// instances differ, like distinct physical conditions).
	mu        sync.Mutex
	seq       int
	instances map[string]*Instance
	clock     func() time.Time
	events    *eventlog.Pipeline
}

// SetEvents attaches the live event pipeline: every instance execution's
// workflow events are forwarded there, so a vposd operator can watch
// instance experiments the same way campaign observers do.
func (m *Manager) SetEvents(p *eventlog.Pipeline) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events = p
}

// NewManager returns a manager storing instance results under baseDir.
func NewManager(baseDir string) (*Manager, error) {
	if err := os.MkdirAll(baseDir, 0o755); err != nil {
		return nil, fmt.Errorf("vpos: %w", err)
	}
	return &Manager{
		baseDir:   baseDir,
		instances: make(map[string]*Instance),
		clock:     time.Now,
	}, nil
}

// SetClock overrides the timestamp source (tests).
func (m *Manager) SetClock(clock func() time.Time) { m.clock = clock }

// Create boots a fresh vpos instance — the paper's "single click".
func (m *Manager) Create() (*Instance, error) {
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("vpos-%04d", m.seq)
	seed := uint64(m.seq)
	now := m.clock()
	m.mu.Unlock()

	topo, err := casestudy.New(casestudy.Virtual, casestudy.WithSeed(seed))
	if err != nil {
		return nil, err
	}
	store, err := results.NewStore(filepath.Join(m.baseDir, id))
	if err != nil {
		topo.Close()
		return nil, err
	}
	inst := &Instance{
		ID:      id,
		Created: now,
		Nodes:   []string{topo.LoadGen, topo.DuT},
		status:  StatusReady,
		topo:    topo,
		store:   store,
	}
	m.mu.Lock()
	m.instances[id] = inst
	m.mu.Unlock()
	return inst, nil
}

// Get returns an instance by id.
func (m *Manager) Get(id string) (*Instance, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	inst, ok := m.instances[id]
	if !ok {
		return nil, fmt.Errorf("vpos: no instance %q", id)
	}
	return inst, nil
}

// List returns all instances sorted by id.
func (m *Manager) List() []*Instance {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Instance, 0, len(m.instances))
	for _, inst := range m.instances {
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Destroy tears an instance down and releases its control plane. The
// results tree on disk survives — researchers keep their artifacts.
func (m *Manager) Destroy(id string) error {
	m.mu.Lock()
	inst, ok := m.instances[id]
	if ok {
		delete(m.instances, id)
	}
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("vpos: no instance %q", id)
	}
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.status == StatusRunning {
		// Destroying mid-run would leave the workflow dangling; the
		// service refuses, like the real one holding a booked node.
		m.mu.Lock()
		m.instances[id] = inst
		m.mu.Unlock()
		return fmt.Errorf("vpos: instance %q is running an experiment", id)
	}
	inst.status = StatusDestroyed
	inst.topo.Close()
	return nil
}

// RunConfig parameterizes an instance experiment execution.
type RunConfig struct {
	// Sweep defaults to the paper's Appendix A sweep when zero.
	Sweep casestudy.SweepConfig
	// Faults, when non-empty, arms a deterministic fault schedule for
	// this execution, keyed by node name — disposable instances are the
	// place to rehearse an experiment's failure behaviour before burning
	// testbed time on it.
	Faults map[string]sim.FaultPlan
}

// Run executes the case-study experiment synchronously inside the instance.
func (m *Manager) Run(ctx context.Context, id string, cfg RunConfig) (*RunInfo, error) {
	inst, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	inst.mu.Lock()
	switch inst.status {
	case StatusRunning:
		inst.mu.Unlock()
		return nil, fmt.Errorf("vpos: instance %q already running", id)
	case StatusDestroyed:
		inst.mu.Unlock()
		return nil, fmt.Errorf("vpos: instance %q destroyed", id)
	}
	inst.status = StatusRunning
	topo, store := inst.topo, inst.store
	inst.mu.Unlock()

	sweep := cfg.Sweep
	if len(sweep.Sizes) == 0 {
		sweep = casestudy.PaperSweep()
	}
	exp := topo.Experiment(sweep)
	info := &RunInfo{Experiment: exp.Name, StartedAt: m.clock()}
	runner := topo.Runner()
	if len(cfg.Faults) > 0 {
		runner.InjectFaults(sim.NewFaultInjector(cfg.Faults))
	}
	// Every instance execution journals its own event stream under the
	// experiment's events/: the service hands researchers results that
	// carry their own execution log. The manager's pipeline is shared by all
	// instances, so the runner gets a private one forwarded into it.
	events := eventlog.NewPipeline()
	events.SetClock(m.clock)
	runner.Events = events
	m.mu.Lock()
	if m.events != nil {
		defer events.ForwardTo(m.events, nil)()
	}
	m.mu.Unlock()
	sum, runErr := runner.Run(ctx, exp, store)
	info.FinishedAt = m.clock()
	if sum != nil {
		info.TotalRuns = sum.TotalRuns
		info.FailedRuns = sum.FailedRuns
		info.ResultsDir = sum.ResultsDir
	}
	if runErr != nil {
		info.Error = runErr.Error()
	}
	inst.mu.Lock()
	inst.status = StatusReady
	inst.lastRun = info
	inst.mu.Unlock()
	if runErr != nil {
		return info, fmt.Errorf("vpos: %w", runErr)
	}
	return info, nil
}

// Results opens the instance's results store for evaluation.
func (m *Manager) Results(id string) (*results.Store, error) {
	inst, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	return inst.store, nil
}

// Experiment builds the instance's case-study definition, for callers that
// want to inspect or customize it before running.
func (m *Manager) Experiment(id string, sweep casestudy.SweepConfig) (*core.Experiment, error) {
	inst, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	return inst.topo.Experiment(sweep), nil
}
