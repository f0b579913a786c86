// Package health is the operator-side supervision layer on top of the
// telemetry and eventlog stacks: a watchdog running pluggable liveness
// probes over the process's own metrics, and a flight recorder that keeps
// the recent event stream ready to dump — with a metrics snapshot and a
// goroutine stack dump — the moment something goes wrong. The paper's
// position is that a result is only trustworthy with its conditions
// recorded; this package extends that from results to incidents: when a
// campaign stalls or fails, the evidence is already on disk.
package health

import (
	"fmt"
	"time"

	"pos/internal/telemetry"
)

// Probe is one watchdog check. Check inspects the watched signal at now
// and reports whether it is healthy plus a human-readable detail line.
// Probes keep internal state between checks (last value, window base); the
// watchdog serializes all Check calls, so probes need no locking of their
// own.
type Probe interface {
	Name() string
	Check(now time.Time) (ok bool, detail string)
}

// StallProbe trips when a monotonic progress signal stops advancing for
// longer than its deadline while the watched activity is supposed to be
// making progress. It is the shape of most "is it stuck?" questions:
// campaign run completions, queue admissions.
type StallProbe struct {
	name     string
	value    func() float64
	active   func() bool
	deadline time.Duration

	primed     bool
	last       float64
	lastChange time.Time
}

// NewStallProbe builds a stall probe: value is the progress signal, active
// reports whether progress is currently expected (nil: always), deadline is
// how long the value may sit still before the probe trips.
func NewStallProbe(name string, value func() float64, active func() bool, deadline time.Duration) *StallProbe {
	return &StallProbe{name: name, value: value, active: active, deadline: deadline}
}

// Name identifies the probe in events, metrics, and flight records.
func (p *StallProbe) Name() string { return p.name }

// Check implements Probe. While inactive the probe is healthy and its
// stall clock resets — a quiet system is not a stuck one.
func (p *StallProbe) Check(now time.Time) (bool, string) {
	if p.active != nil && !p.active() {
		p.primed = false
		return true, "idle"
	}
	v := p.value()
	if !p.primed || v != p.last {
		p.primed, p.last, p.lastChange = true, v, now
		return true, fmt.Sprintf("advancing (at %g)", v)
	}
	if stalled := now.Sub(p.lastChange); stalled > p.deadline {
		return false, fmt.Sprintf("no progress for %s (value %g, deadline %s)",
			stalled.Round(time.Millisecond), v, p.deadline)
	}
	return true, fmt.Sprintf("quiet %s (at %g)", now.Sub(p.lastChange).Round(time.Millisecond), v)
}

// GrowthProbe trips when an error counter climbs by more than limit within
// one observation window — the shape of "is something silently bleeding?"
// questions, like event-broker drop counters.
type GrowthProbe struct {
	name   string
	value  func() float64
	limit  float64
	window time.Duration

	primed      bool
	base        float64
	windowStart time.Time
}

// NewGrowthProbe builds a growth probe over a cumulative counter signal.
func NewGrowthProbe(name string, value func() float64, limit float64, window time.Duration) *GrowthProbe {
	return &GrowthProbe{name: name, value: value, limit: limit, window: window}
}

// Name identifies the probe in events, metrics, and flight records.
func (p *GrowthProbe) Name() string { return p.name }

// Check implements Probe. A trip resets the window, so the probe recovers
// on the next check unless the counter keeps climbing past the limit again.
func (p *GrowthProbe) Check(now time.Time) (bool, string) {
	v := p.value()
	if !p.primed {
		p.primed, p.base, p.windowStart = true, v, now
		return true, fmt.Sprintf("baseline %g", v)
	}
	grown := v - p.base
	if grown > p.limit {
		elapsed := now.Sub(p.windowStart)
		p.base, p.windowStart = v, now
		return false, fmt.Sprintf("grew by %g in %s (limit %g per %s)",
			grown, elapsed.Round(time.Millisecond), p.limit, p.window)
	}
	if now.Sub(p.windowStart) >= p.window {
		p.base, p.windowStart = v, now
	}
	return true, fmt.Sprintf("+%g this window", grown)
}

// totalOf adapts a registry family total into a probe signal; an
// unregistered family reads as zero, so probes can be armed before the
// subsystem they watch has initialized.
func totalOf(reg *telemetry.Registry, name string) func() float64 {
	return func() float64 {
		v, _ := reg.Total(name)
		return v
	}
}

// CampaignProgress watches the runner's completed-run counter while the
// campaign scheduler holds runs in flight: dispatched work that never
// finishes — a hung measurement script past every timeout, a wedged
// replica — trips it.
func CampaignProgress(reg *telemetry.Registry, deadline time.Duration) *StallProbe {
	return NewStallProbe("campaign-progress",
		totalOf(reg, "pos_runner_runs_total"),
		func() bool { v, _ := reg.Total("pos_sched_inflight_runs"); return v > 0 },
		deadline)
}

// QueueStarvation watches the campaign queue's starved-pass counter:
// admission passes that admitted nothing while submissions were queued and
// no campaign held an allocation. A handful in a row means tenants are
// waiting on capacity that is actually free.
func QueueStarvation(reg *telemetry.Registry, passes float64, window time.Duration) *GrowthProbe {
	return NewGrowthProbe("queue-starvation",
		totalOf(reg, "pos_queue_starved_passes_total"), passes, window)
}

// EventDrops watches the broker's ring-buffer drop counter: sustained
// growth means live observers are losing events faster than they consume
// them and should resume from the journal.
func EventDrops(reg *telemetry.Registry, limit float64, window time.Duration) *GrowthProbe {
	return NewGrowthProbe("event-drops",
		totalOf(reg, "pos_events_dropped_total"), limit, window)
}
