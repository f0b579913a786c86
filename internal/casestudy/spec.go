package casestudy

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"pos/internal/core"
	"pos/internal/eventlog"
	"pos/internal/results"
	"pos/internal/sched"
	"pos/internal/yamlite"
)

// Spec is a campaign.yml: every parameter of one case-study campaign — the
// platform and its seed, the sweep, scheduling and fault policy — kept as a
// file apart from the experiment's scripts, the way the paper keeps
// variables apart from scripts. ParseSpec decodes it, Validate holds its
// cross-field rules, Marshal writes its canonical form and Launch runs it.
// Every key is optional; a missing key keeps DefaultSpec's value.
//
//	flavor: vpos
//	seed: 3
//	sizes: [64, 1500]
//	rates: [10000, 100000, 300000]
//	runtime: 1
//	replicas: 2
//	retries: 2
//	quarantine: 0
//	chain: 0
//	clusters: 0
//	epoch: ""
type Spec struct {
	// Flavor is the platform: pos (bare metal) or vpos (virtual).
	Flavor Flavor
	// Seed pins the vpos jitter; replica i of a campaign runs Seed+i.
	Seed uint64
	// Sizes are the swept frame sizes in bytes. Like Rates and Runtime it
	// shapes the case-study sweep only: an experiment directory brings its
	// own loop variables.
	Sizes []int
	// Rates are the swept offered rates in packets per second.
	Rates []int
	// Runtime is each run's measurement window in virtual seconds.
	Runtime float64
	// Replicas is the number of replica testbeds the sweep is sharded
	// across.
	Replicas int
	// Retries bounds the attempts per run; above 1, a failed run is
	// retried after a clean-slate re-setup of its replica.
	Retries int
	// Quarantine drains a replica after this many consecutive failures
	// (0: never).
	Quarantine int
	// Chain, when positive, runs a router chain of that many routers
	// instead of the two-node rig.
	Chain int
	// Clusters is how many trunk-joined clusters the chain forms; with a
	// chain it resolves to 2 when unset and to at most Chain.
	Clusters int
	// Epoch, an RFC 3339 instant, pins the workflow clock so that a rerun
	// records a byte-identical tree.
	Epoch string
}

// DefaultSpec is the spec of an empty campaign.yml: the bare-metal rig, seed
// 1, two sizes by three rates of 1 s each, on one testbed with one attempt.
func DefaultSpec() Spec {
	return Spec{
		Flavor:   BareMetal,
		Seed:     1,
		Sizes:    []int{64, 1500},
		Rates:    []int{10_000, 100_000, 300_000},
		Runtime:  1,
		Replicas: 1,
		Retries:  1,
	}
}

// specKeys are the campaign.yml keys in canonical order.
var specKeys = []string{"flavor", "seed", "sizes", "rates", "runtime",
	"replicas", "retries", "quarantine", "chain", "clusters", "epoch"}

// specArtifact is where Launch archives the spec in the experiment tree.
const specArtifact = "experiment/campaign.yml"

// ParseSpec decodes a campaign.yml over DefaultSpec, resolves the fields
// whose default depends on others, and validates the result. Unknown keys,
// a list where a scalar belongs and malformed numbers are errors naming the
// key; nothing falls back to a default silently.
func ParseSpec(data []byte) (Spec, error) {
	doc, err := yamlite.Parse(data)
	if err != nil {
		return Spec{}, fmt.Errorf("campaign: %w", err)
	}
	s := DefaultSpec()
	for _, key := range doc.Keys() {
		v, _ := doc.Get(key)
		if err := s.set(key, v); err != nil {
			return Spec{}, fmt.Errorf("campaign: %s: %w", key, err)
		}
	}
	s.resolve()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// set decodes one key.
func (s *Spec) set(key string, v yamlite.Value) error {
	switch key {
	case "sizes":
		return setInts(&s.Sizes, v)
	case "rates":
		return setInts(&s.Rates, v)
	}
	if v.IsList {
		return errors.New("holds a list, want a scalar")
	}
	var err error
	switch key {
	case "flavor":
		s.Flavor = Flavor(v.Scalar)
	case "seed":
		s.Seed, err = strconv.ParseUint(v.Scalar, 10, 64)
	case "runtime":
		s.Runtime, err = strconv.ParseFloat(v.Scalar, 64)
	case "replicas":
		s.Replicas, err = strconv.Atoi(v.Scalar)
	case "retries":
		s.Retries, err = strconv.Atoi(v.Scalar)
	case "quarantine":
		s.Quarantine, err = strconv.Atoi(v.Scalar)
	case "chain":
		s.Chain, err = strconv.Atoi(v.Scalar)
	case "clusters":
		s.Clusters, err = strconv.Atoi(v.Scalar)
	case "epoch":
		s.Epoch = v.Scalar
	default:
		return errors.New("unknown key")
	}
	if err != nil {
		return fmt.Errorf("%q: %w", v.Scalar, errors.Unwrap(err))
	}
	return nil
}

// setInts decodes an integer list; a scalar is a one-element list, as for
// any pos loop variable.
func setInts(dst *[]int, v yamlite.Value) error {
	items := v.List
	if !v.IsList {
		items = []string{v.Scalar}
	}
	out := make([]int, len(items))
	for i, item := range items {
		n, err := strconv.Atoi(item)
		if err != nil {
			return fmt.Errorf("%q: %w", item, errors.Unwrap(err))
		}
		out[i] = n
	}
	*dst = out
	return nil
}

// resolve fills the fields whose default depends on others: a chain's
// clusters. It is idempotent, so a marshalled spec parses back equal.
func (s *Spec) resolve() {
	if s.Chain > 0 {
		if s.Clusters == 0 {
			s.Clusters = 2
		}
		s.Clusters = min(s.Clusters, s.Chain)
	}
}

// campaign reports whether the spec needs the campaign scheduler: more than
// one replica, retries, or quarantine.
func (s Spec) campaign() bool {
	return s.Replicas > 1 || s.Retries > 1 || s.Quarantine > 0
}

// Validate checks every field and the rules between them. A router chain
// and a pinned epoch both run on one testbed, so neither combines with
// replicas, retries or quarantine.
func (s Spec) Validate() error {
	var err error
	switch {
	case s.Flavor != BareMetal && s.Flavor != Virtual:
		err = fmt.Errorf("flavor: unknown platform %q (want pos or vpos)", s.Flavor)
	case len(s.Sizes) == 0:
		err = errors.New("sizes: need at least one frame size")
	case len(s.Rates) == 0:
		err = errors.New("rates: need at least one rate")
	case !(s.Runtime > 0 && s.Runtime <= maxRunSeconds):
		err = fmt.Errorf("runtime: %g is not a positive number of seconds", s.Runtime)
	case s.Replicas < 1:
		err = fmt.Errorf("replicas: must be >= 1, got %d", s.Replicas)
	case s.Retries < 1:
		err = fmt.Errorf("retries: must be >= 1, got %d", s.Retries)
	case s.Quarantine < 0:
		err = fmt.Errorf("quarantine: must be >= 0, got %d", s.Quarantine)
	case s.Chain < 0:
		err = fmt.Errorf("chain: must be >= 0, got %d", s.Chain)
	case s.Clusters < 0:
		err = fmt.Errorf("clusters: must be >= 0, got %d", s.Clusters)
	case s.Chain == 0 && s.Clusters > 0:
		err = errors.New("clusters: needs a chain")
	case s.Chain > 0 && s.campaign():
		err = errors.New("chain: runs on one testbed and excludes replicas, retries and quarantine")
	case s.Epoch != "" && s.campaign():
		err = errors.New("epoch: applies to single-testbed runs only")
	}
	if err == nil {
		err = positive("sizes", s.Sizes)
	}
	if err == nil {
		err = positive("rates", s.Rates)
	}
	if err == nil && s.Epoch != "" {
		if _, perr := time.Parse(time.RFC3339, s.Epoch); perr != nil {
			err = fmt.Errorf("epoch: %v", perr)
		}
	}
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

func positive(key string, xs []int) error {
	for _, x := range xs {
		if x <= 0 {
			return fmt.Errorf("%s: %d is not positive", key, x)
		}
	}
	return nil
}

// Marshal writes the spec's canonical campaign.yml: every key, in a fixed
// order, with its resolved value.
func (s Spec) Marshal() []byte {
	ints := func(xs []int) yamlite.Value {
		v := yamlite.Value{List: make([]string, len(xs)), IsList: true}
		for i, x := range xs {
			v.List[i] = strconv.Itoa(x)
		}
		return v
	}
	itoa := func(n int) yamlite.Value { return yamlite.Value{Scalar: strconv.Itoa(n)} }
	return yamlite.Marshal(specKeys, map[string]yamlite.Value{
		"flavor":     {Scalar: string(s.Flavor)},
		"seed":       {Scalar: strconv.FormatUint(s.Seed, 10)},
		"sizes":      ints(s.Sizes),
		"rates":      ints(s.Rates),
		"runtime":    {Scalar: strconv.FormatFloat(s.Runtime, 'g', -1, 64)},
		"replicas":   itoa(s.Replicas),
		"retries":    itoa(s.Retries),
		"quarantine": itoa(s.Quarantine),
		"chain":      itoa(s.Chain),
		"clusters":   itoa(s.Clusters),
		"epoch":      {Scalar: s.Epoch},
	})
}

// Build builds the topology one testbed of the spec runs on: the router
// chain when Chain is set, else the two-node rig, seeded with Seed.
func (s Spec) Build() (*Topology, error) {
	if s.Chain > 0 {
		return NewChain(s.Flavor, ChainConfig{Routers: s.Chain, Clusters: s.Clusters}, WithSeed(s.Seed))
	}
	return New(s.Flavor, WithSeed(s.Seed))
}

// Experiment is the case-study sweep the spec describes, bound to the rig's
// nodes — what Launch runs when it is handed no experiment.
func (s Spec) Experiment() *core.Experiment {
	return sweepExperiment(experimentName(s.Flavor, s.Chain > 0), s.Flavor, loadGenNode, dutNode,
		SweepConfig{Sizes: s.Sizes, RatesPPS: s.Rates, RuntimeSec: s.Runtime})
}

// campaignHeartbeat is the period of a launched campaign's replica liveness
// events.
const campaignHeartbeat = 2 * time.Second

// Launch runs one campaign on testbeds built from spec: exp when given (an
// experiment directory loaded through expfile, say), else spec.Experiment().
// A spec with one replica, one attempt and no quarantine runs on a single
// testbed through core.Runner; any other shards the runs across
// spec.Replicas testbeds through sched.Campaign. events, when non-nil,
// receives the execution record and is journaled under the experiment's
// events/. Whatever ran, the resolved spec is archived as
// experiment/campaign.yml beside the definition, so the tree names the
// platform, seed and policy that produced it.
func Launch(ctx context.Context, spec Spec, exp *core.Experiment, store *results.Store, events *eventlog.Pipeline) (*core.Summary, error) {
	spec.resolve()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if exp == nil {
		exp = spec.Experiment()
	}
	var sum *core.Summary
	var err error
	if spec.campaign() {
		sum, err = spec.runCampaign(ctx, exp, store, events)
	} else {
		sum, err = spec.runSingle(ctx, exp, store, events)
	}
	if sum != nil {
		if aerr := archiveSpec(store, exp, sum.ResultsDir, spec.Marshal()); aerr != nil && err == nil {
			err = aerr
		}
	}
	return sum, err
}

func (s Spec) runSingle(ctx context.Context, exp *core.Experiment, store *results.Store, events *eventlog.Pipeline) (*core.Summary, error) {
	t, err := s.Build()
	if err != nil {
		return nil, err
	}
	defer t.Close()
	runner := t.Runner()
	runner.Events = events
	if s.Epoch != "" {
		pinned, _ := time.Parse(time.RFC3339, s.Epoch) // Validate parsed it
		clock := func() time.Time { return pinned }
		runner.Clock = clock
		if events != nil {
			events.SetClock(clock)
		}
	}
	return runner.Run(ctx, exp, store)
}

func (s Spec) runCampaign(ctx context.Context, exp *core.Experiment, store *results.Store, events *eventlog.Pipeline) (*core.Summary, error) {
	topos, err := NewReplicas(s.Flavor, s.Replicas, WithSeed(s.Seed))
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, t := range topos {
			t.Close()
		}
	}()
	return s.newCampaign(topos, exp, events).Run(ctx, store)
}

// newCampaign wires a campaign over the replica topologies with the spec's
// retry and quarantine policy.
func (s Spec) newCampaign(topos []*Topology, exp *core.Experiment, events *eventlog.Pipeline) *sched.Campaign {
	reps := make([]sched.Replica, len(topos))
	for i, t := range topos {
		e := *exp
		reps[i] = sched.Replica{Name: fmt.Sprintf("replica%d", i), Runner: t.Runner(), Experiment: &e}
	}
	return &sched.Campaign{
		Replicas:          reps,
		MaxAttempts:       s.Retries,
		QuarantineAfter:   s.Quarantine,
		Events:            events,
		HeartbeatInterval: campaignHeartbeat,
	}
}

// archiveSpec files the marshalled spec in the experiment tree Launch's run
// recorded at dir.
func archiveSpec(store *results.Store, exp *core.Experiment, dir string, spec []byte) error {
	res, err := store.OpenExperiment(exp.User, exp.Name, filepath.Base(dir))
	if err != nil {
		return err
	}
	if err := res.AddExperimentArtifact(specArtifact, spec); err != nil {
		return err
	}
	return res.Sync()
}
