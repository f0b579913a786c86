// Package compare models Table 1 of the paper: the evaluation of testbeds
// and methodologies against the five requirements of Sec. 3 — heterogeneity
// (R1), isolation (R2), recoverability (R3), automation (R4), and
// publishability (R5). The support levels are derived from a small feature
// model per system rather than hard-coded cells, so the table is regenerated
// the way the paper's analysis produced it.
package compare

import (
	"fmt"
	"io"
	"strings"
)

// Support is the level of support for one requirement.
type Support int

// Support levels, matching the paper's legend.
const (
	// NotApplicable marks requirements outside a system's scope (a pure
	// methodology has no testbed properties and vice versa).
	NotApplicable Support = iota
	// None is explicit non-support (✗).
	None
	// Partial is partial support (○).
	Partial
	// Full is full support (✓).
	Full
)

// Symbol renders the paper's legend: ✓ full, ○ partial, ✗ none, n.a.
func (s Support) Symbol() string {
	switch s {
	case Full:
		return "✓"
	case Partial:
		return "○"
	case None:
		return "✗"
	default:
		return "n.a."
	}
}

// Requirement identifies one of R1–R5.
type Requirement int

// The five requirements of Sec. 3.
const (
	Heterogeneity  Requirement = iota // R1
	Isolation                         // R2
	Recoverability                    // R3
	Automation                        // R4
	Publishability                    // R5
)

// Label returns the requirement's short name and number.
func (r Requirement) Label() string {
	switch r {
	case Heterogeneity:
		return "Heterog. (R1)"
	case Isolation:
		return "Isolat. (R2)"
	case Recoverability:
		return "Recover. (R3)"
	case Automation:
		return "Autom. (R4)"
	case Publishability:
		return "Publish. (R5)"
	}
	return "?"
}

// Requirements in table order.
var Requirements = []Requirement{Heterogeneity, Isolation, Recoverability, Automation, Publishability}

// Features describes what a system actually provides; support levels are
// derived from these.
type Features struct {
	Name string
	// IsTestbed / IsMethodology scope which requirement groups apply.
	IsTestbed     bool
	IsMethodology bool

	// Testbed features (R1–R3).
	SupportsDiverseHardware bool // heterogeneous devices: servers, NICs, switches
	SwitchedTopology        bool // experiment traffic crosses shared switches
	DirectWiring            bool // point-to-point, non-switched experiment links
	OutOfBandControl        bool // power/console control independent of the node OS
	CleanSlateBoot          bool // nodes restored to a well-defined image per experiment

	// Methodology features (R4–R5).
	ScriptedExperiments  bool // full experiment definitions are executable artifacts
	EvaluationInWorkflow bool // result evaluation is part of the experiment workflow
	AutoPlots            bool // out-of-the-box plot generation
	ArtifactBundling     bool // one-step export/publication of all artifacts
	ArtifactWebsite      bool // generated site documenting the artifacts
}

// Evaluate derives the R1–R5 support levels from the feature set.
func Evaluate(f Features) map[Requirement]Support {
	out := map[Requirement]Support{
		Heterogeneity:  NotApplicable,
		Isolation:      NotApplicable,
		Recoverability: NotApplicable,
		Automation:     NotApplicable,
		Publishability: NotApplicable,
	}
	if f.IsTestbed {
		if f.SupportsDiverseHardware {
			out[Heterogeneity] = Full
		} else {
			out[Heterogeneity] = Partial
		}
		switch {
		case f.DirectWiring:
			out[Isolation] = Full
		case f.SwitchedTopology:
			out[Isolation] = Partial
		default:
			out[Isolation] = None
		}
		if f.OutOfBandControl && f.CleanSlateBoot {
			out[Recoverability] = Full
		} else if f.OutOfBandControl || f.CleanSlateBoot {
			out[Recoverability] = Partial
		} else {
			out[Recoverability] = None
		}
	}
	if f.IsMethodology {
		if f.ScriptedExperiments {
			out[Automation] = Full
		} else {
			out[Automation] = None
		}
		switch {
		case f.EvaluationInWorkflow && f.AutoPlots && f.ArtifactBundling && f.ArtifactWebsite:
			out[Publishability] = Full
		case f.EvaluationInWorkflow || f.ArtifactBundling:
			out[Publishability] = Partial
		default:
			out[Publishability] = None
		}
	}
	return out
}

// Systems returns the feature models of every system in Table 1, in the
// paper's row order.
func Systems() []Features {
	return []Features{
		{
			Name: "Chameleon", IsTestbed: true,
			SupportsDiverseHardware: true, SwitchedTopology: true,
			OutOfBandControl: true, CleanSlateBoot: true,
		},
		{
			Name: "CloudLab", IsTestbed: true,
			SupportsDiverseHardware: true, SwitchedTopology: true,
			OutOfBandControl: true, CleanSlateBoot: true,
		},
		{
			Name: "Grid'5000", IsTestbed: true,
			SupportsDiverseHardware: true, SwitchedTopology: true,
			OutOfBandControl: true, CleanSlateBoot: true,
		},
		{
			Name: "OMF", IsMethodology: true,
			ScriptedExperiments: true,
			// Evaluation is not part of OMF's workflow.
		},
		{
			Name: "NEPI", IsMethodology: true,
			ScriptedExperiments: true,
		},
		{
			Name: "SNDZoo", IsMethodology: true,
			ScriptedExperiments: true, EvaluationInWorkflow: true,
			ArtifactBundling: true,
			// No auto-generated plots or artifact website.
		},
		{
			Name: "pos", IsTestbed: true, IsMethodology: true,
			SupportsDiverseHardware: true, DirectWiring: true,
			OutOfBandControl: true, CleanSlateBoot: true,
			ScriptedExperiments: true, EvaluationInWorkflow: true,
			AutoPlots: true, ArtifactBundling: true, ArtifactWebsite: true,
		},
	}
}

// Row is one rendered table row.
type Row struct {
	Name    string
	Support map[Requirement]Support
}

// Table evaluates all systems.
func Table() []Row {
	systems := Systems()
	rows := make([]Row, len(systems))
	for i, f := range systems {
		rows[i] = Row{Name: f.Name, Support: Evaluate(f)}
	}
	return rows
}

// Write renders the table in the paper's layout.
func Write(w io.Writer) error {
	rows := Table()
	header := make([]string, 0, len(Requirements)+1)
	header = append(header, fmt.Sprintf("%-12s", ""))
	for _, r := range Requirements {
		header = append(header, fmt.Sprintf("%-14s", r.Label()))
	}
	if _, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(header, " "), " ")); err != nil {
		return err
	}
	for _, row := range rows {
		cells := make([]string, 0, len(Requirements)+1)
		cells = append(cells, fmt.Sprintf("%-12s", row.Name))
		for _, r := range Requirements {
			cells = append(cells, fmt.Sprintf("%-14s", row.Support[r].Symbol()))
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(cells, " "), " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w, "✓ fully supported   ○ partially supported   ✗ not supported   n.a. out of scope")
	return err
}
