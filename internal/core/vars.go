// Package core implements the pos experiment methodology: the strict
// separation of experiment scripts from parameter files, the three variable
// kinds (global, local, loop), the cross-product expansion of loop variables
// into measurement runs, and the three-phase workflow engine (setup →
// measurement → evaluation) of Fig. 2. This is the paper's primary
// contribution; everything else in this repository is substrate.
package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Vars is a set of experiment variables: plain name→value pairs, exactly as
// a pos variable file assigns them (the paper's example: the script uses
// $PORT, the variable file sets PORT=eno1).
type Vars map[string]string

// Clone copies the set.
func (v Vars) Clone() Vars {
	out := make(Vars, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Merge overlays layers onto v in order; later layers win. It returns a new
// set and mutates nothing. pos precedence is global < local < loop: the more
// specific the scope, the stronger the binding.
func Merge(layers ...Vars) Vars {
	out := Vars{}
	for _, l := range layers {
		for k, val := range l {
			out[k] = val
		}
	}
	return out
}

// LoopVar is one loop variable: a name and the list of values to sweep. The
// paper's case study uses pkt_sz=[64, 1500] and pkt_rate=[10000…300000].
type LoopVar struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// Combination is one concrete assignment of every loop variable — the
// parameters of a single measurement run.
type Combination map[string]string

// Key returns a canonical "k=v,k=v" string, usable for deduplication and
// stable metadata.
func (c Combination) Key() string {
	var stack [8]string
	keys := stack[:0]
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		n += len(k) + len(c[k]) + 2
	}
	var b strings.Builder
	b.Grow(n)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(c[k])
	}
	return b.String()
}

// CrossProduct expands loop variables into every possible combination, in
// deterministic order: the first variable varies slowest, the last varies
// fastest. With no loop variables it returns a single empty combination (one
// run). This mirrors pos exactly: "pos experiments perform measurements for
// each possible combination of loop parameters."
func CrossProduct(vars []LoopVar) ([]Combination, error) {
	total := 1
	for _, v := range vars {
		if v.Name == "" {
			return nil, fmt.Errorf("core: loop variable with empty name")
		}
		if len(v.Values) == 0 {
			return nil, fmt.Errorf("core: loop variable %q has no values", v.Name)
		}
		if total > 1<<20/len(v.Values) {
			return nil, fmt.Errorf("core: cross product exceeds %d runs — the paper warns about exponential growth; trim the parameter lists", 1<<20)
		}
		total *= len(v.Values)
	}
	seen := make(map[string]bool, len(vars))
	for _, v := range vars {
		if seen[v.Name] {
			return nil, fmt.Errorf("core: duplicate loop variable %q", v.Name)
		}
		seen[v.Name] = true
	}
	out := make([]Combination, total)
	for i := range out {
		out[i] = make(Combination, len(vars))
	}
	stride := total
	for _, v := range vars {
		stride /= len(v.Values)
		for i := 0; i < total; i++ {
			out[i][v.Name] = v.Values[(i/stride)%len(v.Values)]
		}
	}
	return out, nil
}

// NumRuns reports the cross-product size without materializing it.
func NumRuns(vars []LoopVar) int {
	total := 1
	for _, v := range vars {
		total *= len(v.Values)
	}
	return total
}

// MarshalLoopVars renders loop variables as the experiment's
// loop-variables file artifact (JSON here; the paper uses YAML, the format
// is incidental to the methodology).
func MarshalLoopVars(vars []LoopVar) ([]byte, error) {
	data, err := json.MarshalIndent(vars, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return append(data, '\n'), nil
}

// UnmarshalLoopVars parses a loop-variables artifact.
func UnmarshalLoopVars(data []byte) ([]LoopVar, error) {
	var vars []LoopVar
	if err := json.Unmarshal(data, &vars); err != nil {
		return nil, fmt.Errorf("core: parsing loop variables: %w", err)
	}
	return vars, nil
}
