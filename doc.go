// Package pos is a Go reproduction of "The pos Framework: A Methodology and
// Toolchain for Reproducible Network Experiments" (Gallenmüller, Scholz,
// Stubbe, Carle — CoNEXT 2021).
//
// pos ("plain orchestrating service") makes network experiments reproducible
// by construction: experiments are pure data — per-host setup and
// measurement scripts strictly separated from global/local/loop variable
// files — executed by a testbed controller that allocates nodes on a shared
// calendar, resets them out of band, boots them from versioned live images,
// expands loop variables into a full cross product of measurement runs, and
// collects every artifact (scripts, variables, outputs, metadata) into a
// self-describing results tree ready for evaluation and publication.
//
// Like the paper's pos, this is a methodology plus a command-line toolchain,
// not a library: this package holds only this overview and the end-to-end
// tests. The tool is cmd/posctl. Every figure of the paper's evaluation is a
// campaign file under experiments/campaigns that `posctl run -f` executes,
// and TestShippedCampaigns checks the paper's claims against what they
// record; the packages below carry runnable Examples of their APIs.
//
// # Architecture
//
// The work is done by the packages under internal/, in three layers:
//
//   - The methodology (internal/core): variables, cross-product expansion,
//     and the setup → measurement → evaluation workflow engine.
//   - The testbed (internal/testbed and friends): emulated experiment hosts
//     with IPMI-like out-of-band management and SSH-like script execution
//     over real TCP, live-boot images, an allocation calendar, host-side
//     utility tools (variables, barriers, result upload), and a central
//     results store (internal/results).
//   - The data plane (internal/sim, netem, loadgen, router): a
//     deterministic discrete-event emulation of the paper's hardware — a
//     MoonGen-style load generator and a Linux-router DuT on directly wired
//     10 Gbit/s links — with calibrated bare-metal and virtualized
//     performance models reproducing Fig. 3 of the paper.
//
// The case study (internal/casestudy) wires the three layers into the
// paper's two-node experiment and reads campaign.yml specs. Evaluation
// (internal/eval, internal/plot) parses MoonGen-format logs into
// throughput/latency series and renders line, histogram, CDF, HDR, and
// violin figures to SVG, TeX, and CSV. Publication (internal/publish)
// bundles all artifacts into an archive plus a generated website. The
// controller API (internal/api), campaign queue (internal/queue), replica
// scheduler (internal/sched) and event journal (internal/eventlog) serve a
// shared testbed to several users.
//
// # Quick start
//
//	posctl run -f experiments/campaigns/fig3a-pos.yml -results R
//	posctl plot -dir R -exp linux-router-pos
//	posctl publish -dir R -exp linux-router-pos
//
// Example_workflow is a smaller run through the packages themselves. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package pos
