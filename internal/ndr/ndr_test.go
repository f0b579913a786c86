package ndr

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pos/internal/casestudy"
)

// stepMeasurer returns zero loss below capacity, proportional loss above.
func stepMeasurer(capacity float64) Measurer {
	return func(rate float64) (float64, error) {
		if rate <= capacity {
			return 0, nil
		}
		return 1 - capacity/rate, nil
	}
}

func TestSearchConvergesToCapacity(t *testing.T) {
	res, err := Search(Config{MinPPS: 1000, MaxPPS: 3_000_000, Precision: 0.001}, stepMeasurer(1_750_000))
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(res.NDRPPS-1_750_000) / 1_750_000; e > 0.005 {
		t.Errorf("NDR = %.0f, want ~1.75M (err %.4f)", res.NDRPPS, e)
	}
	if res.Saturated {
		t.Error("marked saturated despite loss at max")
	}
	// The found rate itself must pass.
	last := res.Trials[len(res.Trials)-1]
	_ = last
	if loss, _ := stepMeasurer(1_750_000)(res.NDRPPS); loss != 0 {
		t.Errorf("returned NDR %.0f loses packets", res.NDRPPS)
	}
}

func TestSearchSaturated(t *testing.T) {
	res, err := Search(Config{MinPPS: 10, MaxPPS: 1000}, stepMeasurer(5000))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated || res.NDRPPS != 1000 {
		t.Errorf("res = %+v", res)
	}
	if len(res.Trials) != 2 {
		t.Errorf("trials = %d, want 2 (bracket only)", len(res.Trials))
	}
	if !strings.Contains(res.Summary(), "saturated") {
		t.Errorf("summary = %q", res.Summary())
	}
}

func TestSearchLossAtMin(t *testing.T) {
	_, err := Search(Config{MinPPS: 10_000, MaxPPS: 100_000}, stepMeasurer(5_000))
	if !errors.Is(err, ErrLossAtMin) {
		t.Errorf("err = %v, want ErrLossAtMin", err)
	}
}

func TestSearchBadBracket(t *testing.T) {
	for _, cfg := range []Config{
		{MinPPS: 0, MaxPPS: 100},
		{MinPPS: 100, MaxPPS: 100},
		{MinPPS: 200, MaxPPS: 100},
	} {
		if _, err := Search(cfg, stepMeasurer(50)); !errors.Is(err, ErrBadBracket) {
			t.Errorf("cfg %+v: err = %v", cfg, err)
		}
	}
}

func TestSearchAcceptLoss(t *testing.T) {
	// With 0.1% accepted loss, rates slightly above capacity pass.
	capacity := 100_000.0
	strict, err := Search(Config{MinPPS: 1000, MaxPPS: 200_000, Precision: 0.001}, stepMeasurer(capacity))
	if err != nil {
		t.Fatal(err)
	}
	// 5% accepted loss admits rates up to capacity/(1-0.05) ≈ 105.3k —
	// comfortably distinguishable from the strict threshold at the
	// search's 200 pps grid resolution.
	loose, err := Search(Config{MinPPS: 1000, MaxPPS: 200_000, Precision: 0.001, AcceptLoss: 0.05}, stepMeasurer(capacity))
	if err != nil {
		t.Fatal(err)
	}
	if loose.NDRPPS <= strict.NDRPPS {
		t.Errorf("loose NDR %.0f <= strict %.0f", loose.NDRPPS, strict.NDRPPS)
	}
}

func TestSearchRespectsMaxTrials(t *testing.T) {
	res, err := Search(Config{MinPPS: 1, MaxPPS: 1e9, MaxTrials: 5, Precision: 1e-9}, stepMeasurer(12345))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) > 5 {
		t.Errorf("trials = %d", len(res.Trials))
	}
}

func TestSearchPropagatesMeasureError(t *testing.T) {
	boom := errors.New("generator on fire")
	calls := 0
	m := func(rate float64) (float64, error) {
		calls++
		if calls == 3 {
			return 0, boom
		}
		return stepMeasurer(500)(rate)
	}
	if _, err := Search(Config{MinPPS: 10, MaxPPS: 1000}, m); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

// Property: for any step capacity within the bracket, the search result is
// within precision of the capacity and never above a losing rate.
func TestSearchConvergenceProperty(t *testing.T) {
	prop := func(capSeed uint32) bool {
		capacity := 1000 + float64(capSeed%10_000_000)
		res, err := Search(Config{MinPPS: 500, MaxPPS: 20_000_000, Precision: 0.001}, stepMeasurer(capacity))
		if err != nil {
			return false
		}
		if capacity >= 20_000_000 {
			return res.Saturated
		}
		// Precision is relative to the bracket ceiling: the final
		// bracket is at most 0.001*MaxPPS wide and NDR is its floor.
		return res.NDRPPS <= capacity && capacity-res.NDRPPS <= 0.001*20_000_000+1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Integration: find the NDR of the emulated DuTs and compare with the
// paper's headline numbers.
func TestNDROfCaseStudyPlatforms(t *testing.T) {
	measure := func(topo *casestudy.Topology, size int) Measurer {
		return func(rate float64) (float64, error) {
			p, err := topo.DirectRun(size, rate, 1)
			if err != nil {
				return 0, err
			}
			return p.LossRatio, nil
		}
	}
	bm, err := casestudy.New(casestudy.BareMetal)
	if err != nil {
		t.Fatal(err)
	}
	defer bm.Close()
	res, err := Search(Config{MinPPS: 10_000, MaxPPS: 2_500_000, Precision: 0.005}, measure(bm, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.NDRPPS < 1.6e6 || res.NDRPPS > 1.8e6 {
		t.Errorf("bare-metal 64B NDR = %.0f, want ~1.75M", res.NDRPPS)
	}

	vm, err := casestudy.New(casestudy.Virtual, casestudy.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer vm.Close()
	vres, err := Search(Config{MinPPS: 5_000, MaxPPS: 300_000, Precision: 0.01}, measure(vm, 1500))
	if err != nil {
		t.Fatal(err)
	}
	if vres.NDRPPS < 30_000 || vres.NDRPPS > 60_000 {
		t.Errorf("vpos 1500B NDR = %.0f, want ~40k", vres.NDRPPS)
	}
	ratio := res.NDRPPS / vres.NDRPPS
	if ratio < 25 || ratio > 60 {
		t.Errorf("NDR gap = %.1fx, want ~44x", ratio)
	}
}
