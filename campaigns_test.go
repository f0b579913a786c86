package pos_test

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"pos/internal/casestudy"
	"pos/internal/eval"
	"pos/internal/packet"
	"pos/internal/results"
)

// campaignDir holds the campaign files the repository ships: one per figure
// or claim of the paper's evaluation, each run by `posctl run -f`.
const campaignDir = "experiments/campaigns"

// sweepResult is one evaluated campaign: received Mpps over offered Mpps,
// per frame size, read back from the stored MoonGen logs.
type sweepResult map[int][]eval.Point

// shippedClaim is one of the paper's claims, checked against the evaluated
// artifacts of the shipped campaigns (keyed by file name); a claim may read
// another file's result, as the bare-metal/VM gap does.
type shippedClaim struct {
	name  string
	check func(got map[string]sweepResult) error
}

// The paper's numbers, each with the tolerance its claim is checked at.
const (
	bareMetalMpps  = 1.75 // Fig. 3a: the router's CPU limit, any frame size
	vmDropFreeMpps = 0.04 // Fig. 3b: the VM's highest drop-free rate
	gapFactor      = 44   // Sec. 5: bare metal over the VM's drop-free rate
	plateauTol     = 0.01 // a plateau or line rate, relative
	forwardedTol   = 1e-3 // rx equals offered, relative (logs keep 4 decimals)
	gapTol         = 0.05 // the gap factor, relative
)

// lineRateMpps is the 10 Gbit/s line rate of frames of size bytes.
func lineRateMpps(size int) float64 { return packet.LineRatePPS(10e9, size) / 1e6 }

// shippedClaims is every shipped campaign file's row. A file without a row
// fails TestShippedCampaigns: a campaign ships with the claims it checks.
var shippedClaims = map[string][]shippedClaim{
	"fig3a-pos.yml": {
		{"Fig. 3a: 64 B plateaus at 1.75 Mpps", func(got map[string]sweepResult) error {
			return plateau(got["fig3a-pos.yml"][64], bareMetalMpps)
		}},
		{"Fig. 3a: 1500 B plateaus at the 10 Gbit/s line rate", func(got map[string]sweepResult) error {
			return plateau(got["fig3a-pos.yml"][1500], lineRateMpps(1500))
		}},
		{"Fig. 3a: 64 B forwards every packet below 1.75 Mpps", func(got map[string]sweepResult) error {
			return forwarded(got["fig3a-pos.yml"][64], bareMetalMpps*(1-plateauTol))
		}},
		{"Fig. 3a: 1500 B forwards every packet below line rate", func(got map[string]sweepResult) error {
			return forwarded(got["fig3a-pos.yml"][1500], lineRateMpps(1500)*(1-plateauTol))
		}},
	},
	"appendix-vpos.yml": {
		{"Fig. 3b: the VM is drop-free up to 0.04 Mpps at both sizes", func(got map[string]sweepResult) error {
			for _, size := range []int{64, 1500} {
				if err := forwarded(got["appendix-vpos.yml"][size], vmDropFreeMpps*(1+forwardedTol)); err != nil {
					return fmt.Errorf("%d B: %w", size, err)
				}
			}
			return nil
		}},
		// The gap divides by the drop-free rate the claim above holds the VM
		// to, not by the grid's highest drop-free point: with two replicas
		// the point at 0.05 Mpps is drop-free in some campaigns and not in
		// others, depending on which replica's jitter it ran under.
		{"Sec. 5: bare metal forwards up to 44x the VM's drop-free rate", func(got map[string]sweepResult) error {
			bm := maxRx(got["fig3a-pos.yml"][64])
			if ratio := bm / vmDropFreeMpps; !within(ratio, gapFactor, gapTol) {
				return fmt.Errorf("%.4f / %.2f Mpps = %.1fx, want %dx ±%g%%", bm, vmDropFreeMpps, ratio, gapFactor, gapTol*100)
			}
			return nil
		}},
	},
	"appendix-pos.yml": {
		{"Appendix A on pos: every run is drop-free", func(got map[string]sweepResult) error {
			for _, size := range []int{64, 1500} {
				if err := forwarded(got["appendix-pos.yml"][size], math.Inf(1)); err != nil {
					return fmt.Errorf("%d B: %w", size, err)
				}
			}
			return nil
		}},
	},
	"robustness-pos.yml": {
		{"Robustness: frames up to 680 B are CPU-bound at ~1.755 Mpps, from 700 B on at line rate", func(got map[string]sweepResult) error {
			res := got["robustness-pos.yml"]
			if len(res) != 12 {
				return fmt.Errorf("%d frame sizes, want 12", len(res))
			}
			for _, size := range sortedKeys(res) {
				want := lineRateMpps(size)
				switch {
				case size <= 680:
					want = 1.755
				case size < 700:
					return fmt.Errorf("%d B lies in the crossover (~694 B) the claim leaves open", size)
				}
				if err := plateau(res[size], want); err != nil {
					return fmt.Errorf("%d B: %w", size, err)
				}
			}
			return nil
		}},
	},
}

// TestShippedCampaigns runs every campaign file under experiments/campaigns
// the way `posctl run -f` does — casestudy.ParseSpec, then Launch into a
// fresh store — evaluates the stored artifacts as `posctl plot` does, and
// checks the paper's claims against them. It is the repository's statement
// that the shipped files reproduce the paper.
func TestShippedCampaigns(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(campaignDir, "*.yml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("campaign files = %v, %v", files, err)
	}
	got := make(map[string]sweepResult, len(files))
	for _, path := range files {
		name := filepath.Base(path)
		if _, ok := shippedClaims[name]; !ok {
			t.Errorf("%s: shipped without a row in shippedClaims", name)
			continue
		}
		res, err := runCampaignFile(t, path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = res
	}
	for _, name := range sortedKeys(shippedClaims) {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: claims a campaign file that is not shipped", name)
			continue
		}
		for _, c := range shippedClaims[name] {
			if err := c.check(got); err != nil {
				t.Errorf("%s: %s: %v", name, c.name, err)
			}
		}
	}
}

// runCampaignFile launches one campaign file into a fresh store and loads its
// throughput series back from the stored MoonGen logs.
func runCampaignFile(t *testing.T, path string) (sweepResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := casestudy.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	store, err := results.NewStore(t.TempDir())
	if err != nil {
		return nil, err
	}
	sum, err := casestudy.Launch(context.Background(), spec, nil, store, nil)
	if err != nil {
		return nil, err
	}
	if sum.FailedRuns != 0 {
		return nil, fmt.Errorf("%d of %d runs failed", sum.FailedRuns, sum.TotalRuns)
	}
	exp := spec.Experiment()
	rec, err := store.OpenExperiment(exp.User, exp.Name, filepath.Base(sum.ResultsDir))
	if err != nil {
		return nil, err
	}
	// The load generator's logs, as `posctl plot` reads them by default.
	runs, err := eval.LoadRuns(rec, "vriga", "moongen.log")
	if err != nil {
		return nil, err
	}
	series, err := eval.ThroughputSeries(runs, "pkt_sz", "pkt_rate", 1e-6)
	if err != nil {
		return nil, err
	}
	res := make(sweepResult, len(series))
	for _, s := range series {
		size, err := strconv.Atoi(s.Name)
		if err != nil {
			return nil, fmt.Errorf("series %q: %w", s.Name, err)
		}
		res[size] = s.Points
	}
	if want := len(spec.Sizes) * len(spec.Rates); len(runs) != want {
		return nil, fmt.Errorf("%d runs evaluated, want %d", len(runs), want)
	}
	return res, nil
}

// within reports whether got is want within a relative tolerance.
func within(got, want, tol float64) bool { return math.Abs(got-want) <= tol*want }

// plateau checks that every point offered past cap is received at cap
// within plateauTol, and that there is at least one such point.
func plateau(pts []eval.Point, capMpps float64) error {
	n := 0
	for _, p := range pts {
		if p.X <= capMpps*(1+plateauTol) {
			continue
		}
		n++
		if !within(p.Y, capMpps, plateauTol) {
			return fmt.Errorf("offered %.4f Mpps, received %.4f, want %.4f ±%g%%", p.X, p.Y, capMpps, plateauTol*100)
		}
	}
	if n == 0 {
		return fmt.Errorf("no point offered past %.4f Mpps", capMpps)
	}
	return nil
}

// forwarded checks that every point offered below limit is received whole,
// and that there is at least one such point.
func forwarded(pts []eval.Point, limit float64) error {
	n := 0
	for _, p := range pts {
		if p.X >= limit {
			continue
		}
		n++
		if !within(p.Y, p.X, forwardedTol) {
			return fmt.Errorf("offered %.4f Mpps, received %.4f", p.X, p.Y)
		}
	}
	if n == 0 {
		return fmt.Errorf("no point offered below %.4f Mpps", limit)
	}
	return nil
}

// maxRx is the highest received rate of a series.
func maxRx(pts []eval.Point) float64 {
	best := 0.0
	for _, p := range pts {
		best = max(best, p.Y)
	}
	return best
}

// sortedKeys returns m's keys in order, so claims report deterministically.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
