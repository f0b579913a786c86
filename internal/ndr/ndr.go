// Package ndr implements an RFC 2544-style throughput search: the highest
// offered rate a device forwards without loss (the non-drop rate). The
// paper's case study sweeps a fixed rate grid; this utility is the
// methodology extension measurement engineers actually run on top of such a
// testbed — a binary search over offered load with a configurable loss
// acceptance criterion, producing both the NDR and the trial history as a
// publishable artifact.
package ndr

import "fmt"

// Measurer performs one trial at the given offered rate and reports the
// observed loss ratio (0..1).
type Measurer func(ratePPS float64) (lossRatio float64, err error)

// Config bounds the search.
type Config struct {
	// MinPPS and MaxPPS bracket the search. MinPPS must be loss-free for
	// the result to be meaningful; Search verifies this.
	MinPPS, MaxPPS float64
	// AcceptLoss is the loss ratio still considered "drop-free"
	// (RFC 2544 uses 0; production NDR tests often accept 1e-4).
	AcceptLoss float64
	// Precision stops the search when the bracket is narrower than
	// Precision * MaxPPS. Zero defaults to 0.01 (1%).
	Precision float64
	// MaxTrials caps the number of measurements. Zero defaults to 32.
	MaxTrials int
}

// Trial is one measurement of the search.
type Trial struct {
	RatePPS   float64
	LossRatio float64
	Passed    bool
}

// Result is the outcome of a search.
type Result struct {
	// NDRPPS is the highest passing rate found.
	NDRPPS float64
	// Trials is the full history, in execution order.
	Trials []Trial
	// Saturated reports that even MaxPPS passed — the true NDR lies
	// above the bracket.
	Saturated bool
}

// Errors.
var (
	ErrBadBracket = fmt.Errorf("ndr: need 0 < MinPPS < MaxPPS")
	ErrLossAtMin  = fmt.Errorf("ndr: loss at the minimum rate — no drop-free region in bracket")
)

// Search runs the binary search.
func Search(cfg Config, measure Measurer) (Result, error) {
	if cfg.MinPPS <= 0 || cfg.MaxPPS <= cfg.MinPPS {
		return Result{}, ErrBadBracket
	}
	precision := cfg.Precision
	if precision <= 0 {
		precision = 0.01
	}
	maxTrials := cfg.MaxTrials
	if maxTrials <= 0 {
		maxTrials = 32
	}
	var res Result
	trial := func(rate float64) (bool, error) {
		loss, err := measure(rate)
		if err != nil {
			return false, fmt.Errorf("ndr: trial at %.0f pps: %w", rate, err)
		}
		passed := loss <= cfg.AcceptLoss
		res.Trials = append(res.Trials, Trial{RatePPS: rate, LossRatio: loss, Passed: passed})
		return passed, nil
	}

	// Establish the bracket: the floor must pass, and if the ceiling
	// passes the device is not saturable within the bracket.
	ok, err := trial(cfg.MinPPS)
	if err != nil {
		return res, err
	}
	if !ok {
		return res, ErrLossAtMin
	}
	ok, err = trial(cfg.MaxPPS)
	if err != nil {
		return res, err
	}
	if ok {
		res.NDRPPS = cfg.MaxPPS
		res.Saturated = true
		return res, nil
	}

	lo, hi := cfg.MinPPS, cfg.MaxPPS
	for len(res.Trials) < maxTrials && (hi-lo) > precision*cfg.MaxPPS {
		mid := (lo + hi) / 2
		ok, err := trial(mid)
		if err != nil {
			return res, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	res.NDRPPS = lo
	return res, nil
}

// Summary renders the result for experiment logs.
func (r Result) Summary() string {
	state := "converged"
	if r.Saturated {
		state = "saturated (true NDR above bracket)"
	}
	return fmt.Sprintf("NDR %.0f pps after %d trials (%s)", r.NDRPPS, len(r.Trials), state)
}
