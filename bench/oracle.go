package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
)

// golden.json holds, per workload and seed, the digests of the first ops of
// a fresh set-up. A speed-only change must never need to regenerate it.
//
//go:embed golden.json
var goldenJSON []byte

// goldenOps is how many leading ops of a non-repeating workload are pinned.
const goldenOps = 16

func loadGolden() (map[string]map[string][]string, error) {
	g := map[string]map[string][]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// oracle checks the digest of every op of one set-up against golden.json.
// A workload whose ops all start from fresh state repeats one digest, so
// every op is pinned (to the first op's digest when the seed has no golden
// entry — determinism is still checked). A workload that carries simulator
// state from op to op pins its first goldenOps ops; later ops are covered
// by the structural checks in the op itself.
type oracle struct {
	mu      sync.Mutex
	golden  []string
	repeats bool
	n       int
	first   string
	// seen collects digests in op order for -update-golden.
	seen []string
}

func newOracle(workload string, seed uint64, repeats bool) (*oracle, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	return &oracle{golden: g[workload][strconv.FormatUint(seed, 10)], repeats: repeats}, nil
}

func (o *oracle) check(digest string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	k := o.n
	o.n++
	if len(o.seen) < goldenOps {
		o.seen = append(o.seen, digest)
	}
	if k == 0 {
		o.first = digest
	}
	want := ""
	switch {
	case o.repeats && len(o.golden) > 0:
		want = o.golden[0]
	case o.repeats:
		want = o.first
	case k < len(o.golden):
		want = o.golden[k]
	}
	if want != "" && digest != want {
		return fmt.Errorf("op %d: digest %.12s… differs from expected %.12s…", k, digest, want)
	}
	return nil
}

// oracleState exposes the embedded oracle of a workload (-update-golden).
func (o *oracle) oracleState() *oracle { return o }
