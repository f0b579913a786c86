// Package timeline assembles a campaign's archived record — spans.json, the
// event journal (with its queue admission record and the attempt of every
// retried run) and the per-run metadata — into one causal timeline, and
// answers the question the raw artifacts cannot: where did the time go, and
// did it go somewhere different than last time? It only reads: the timeline
// is a view computed on demand, never a file in the experiment.
//
// The core computation is the campaign critical path: a walk over the span
// tree that partitions the campaign's wall-clock interval into contiguous
// segments, each attributed to the innermost span running at that moment.
// Because the segments partition the interval exactly, per-phase totals sum
// to the campaign wall clock by construction — performance attribution that
// always adds up is what makes the -baseline drift check trustworthy.
package timeline

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"pos/internal/eventlog"
	"pos/internal/results"
	"pos/internal/telemetry"
)

// Canonical phase labels, in report order. Every critical-path segment is
// classified into exactly one.
const (
	PhaseQueueWait   = "queue-wait"
	PhaseBoot        = "boot"
	PhaseSetup       = "setup"
	PhaseMeasurement = "measurement"
	PhaseRetry       = "retry"
	PhaseEval        = "eval"
	PhasePublish     = "publish"
	PhaseIdle        = "idle"
	PhaseOther       = "other"
)

// phaseOrder fixes the report ordering (and the drift comparison ordering).
var phaseOrder = []string{
	PhaseQueueWait, PhaseBoot, PhaseSetup, PhaseMeasurement,
	PhaseRetry, PhaseEval, PhasePublish, PhaseIdle, PhaseOther,
}

// Segment is one contiguous slice of the campaign's wall-clock interval,
// attributed to the innermost span running during it. Offsets are relative
// to the timeline start so two runs of the same experiment diff cleanly.
type Segment struct {
	Span    string  `json:"span"`
	Phase   string  `json:"phase"`
	Proc    string  `json:"proc,omitempty"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// PhaseTotal is one phase's share of the campaign wall clock.
type PhaseTotal struct {
	Phase    string  `json:"phase"`
	MS       float64 `json:"ms"`
	Fraction float64 `json:"fraction"`
}

// Summary is the distilled answer — critical path plus per-phase
// attribution, computed from span records alone.
type Summary struct {
	TraceID      string       `json:"trace_id,omitempty"`
	Root         string       `json:"root,omitempty"`
	Start        time.Time    `json:"start"`
	End          time.Time    `json:"end"`
	WallMS       float64      `json:"wall_ms"`
	Phases       []PhaseTotal `json:"phases"`
	CriticalPath []Segment    `json:"critical_path"`
}

// RunStat is one measurement run's contribution.
type RunStat struct {
	Run      int     `json:"run"`
	Replica  string  `json:"replica,omitempty"`
	DurMS    float64 `json:"dur_ms"`
	Failed   bool    `json:"failed,omitempty"`
	Attempts int     `json:"attempts,omitempty"` // >1 means retried
}

// ReplicaStat aggregates one replica lane: how long the lane existed, how
// much of it was spent executing runs, and the idle remainder (dispatch
// gaps, clean-slate re-setups, waiting for the shared queue to drain).
type ReplicaStat struct {
	Name         string  `json:"name"`
	Runs         int     `json:"runs"`
	LaneMS       float64 `json:"lane_ms"`
	BusyMS       float64 `json:"busy_ms"`
	IdleFraction float64 `json:"idle_fraction"`
}

// Straggler flags an outlier: the slowest run or replica measured against
// the median of its peers.
type Straggler struct {
	Kind     string  `json:"kind"` // "run" | "replica"
	Name     string  `json:"name"`
	DurMS    float64 `json:"dur_ms"`
	MedianMS float64 `json:"median_ms"`
	Ratio    float64 `json:"ratio"`
}

// Timeline is the assembled view of one campaign.
type Timeline struct {
	Summary
	QueueWaitMS float64       `json:"queue_wait_ms,omitempty"`
	QueueUser   string        `json:"queue_user,omitempty"`
	Procs       []string      `json:"procs,omitempty"`
	Spans       int           `json:"spans"`
	Events      int           `json:"events"`
	Runs        []RunStat     `json:"runs,omitempty"`
	Replicas    []ReplicaStat `json:"replicas,omitempty"`
	Stragglers  []Straggler   `json:"stragglers,omitempty"`
}

// classify maps a span name to its phase. Retries are handled by the tree
// walk (duplicate "run N" spans and re-setup), not here.
func classify(name string) string {
	switch {
	case name == PhaseQueueWait:
		return PhaseQueueWait
	case strings.HasPrefix(name, "boot"):
		return PhaseBoot
	case name == "re-setup":
		return PhaseRetry
	case strings.HasPrefix(name, "setup"), strings.HasPrefix(name, "prepare:"):
		return PhaseSetup
	case strings.HasPrefix(name, "run "), strings.HasPrefix(name, "exec:"):
		return PhaseMeasurement
	case strings.HasPrefix(name, "eval"):
		return PhaseEval
	case strings.HasPrefix(name, "publish"):
		return PhasePublish
	case strings.HasPrefix(name, "replica:"):
		// A replica lane's own time — not inside any run — is dispatch and
		// queue-drain idle.
		return PhaseIdle
	default:
		return PhaseOther
	}
}

// node is one span in the reconstructed tree.
type node struct {
	rec      *telemetry.SpanRecord
	children []*node
	retry    bool // a later attempt of an already-seen "run N" span
}

// buildTree reconstructs the span forest from records, preferring the hex
// parent linkage (cross-process safe) and falling back to the int linkage
// for archives predating trace identities. It returns the roots. The nodes
// live in one slice, and their children lists in one shared backing slice.
func buildTree(recs []telemetry.SpanRecord) []*node {
	nodes := make([]node, len(recs))
	bySpanID := make(map[string]int, len(recs))
	legacy := false
	for i := range recs {
		nodes[i].rec = &recs[i]
		if recs[i].SpanID != "" {
			bySpanID[recs[i].SpanID] = i
		} else {
			legacy = true
		}
	}
	// Legacy linkage is only unambiguous within one process's archive, and
	// only a span without a span_id follows it.
	var byIntID map[string]map[int]int
	if legacy {
		byIntID = make(map[string]map[int]int)
		for i, r := range recs {
			m := byIntID[r.Proc]
			if m == nil {
				m = make(map[int]int)
				byIntID[r.Proc] = m
			}
			m[r.ID] = i
		}
	}
	// parent[i] is the index of node i's parent, or -1 for a root.
	parent := make([]int, len(recs))
	nkids := make([]int, len(recs))
	nroots := 0
	for i, r := range recs {
		p, ok := 0, false
		if r.ParentSpanID != "" {
			p, ok = bySpanID[r.ParentSpanID]
		}
		if !ok && r.SpanID == "" && r.Parent != 0 {
			p, ok = byIntID[r.Proc][r.Parent]
		}
		if !ok || p == i {
			parent[i] = -1
			nroots++
			continue
		}
		parent[i] = p
		nkids[p]++
	}
	kids := make([]*node, len(recs)-nroots)
	for i := range nodes {
		nodes[i].children, kids = kids[:0:nkids[i]], kids[nkids[i]:]
	}
	roots := make([]*node, 0, nroots)
	for i, p := range parent {
		if p < 0 {
			roots = append(roots, &nodes[i])
			continue
		}
		nodes[p].children = append(nodes[p].children, &nodes[i])
	}
	for i := range nodes {
		slices.SortStableFunc(nodes[i].children, byStart)
	}
	markRetries(nodes)
	return roots
}

func byStart(a, b *node) int { return a.rec.Start.Compare(b.rec.Start) }

// markRetries flags the second and later occurrences of each "run N" span
// name as retries — the campaign opens one span per attempt, so duplicates
// are exactly the re-dispatches.
func markRetries(nodes []node) {
	var runs []*node
	for i := range nodes {
		if strings.HasPrefix(nodes[i].rec.Name, "run ") {
			runs = append(runs, &nodes[i])
		}
	}
	slices.SortStableFunc(runs, func(a, b *node) int {
		if c := strings.Compare(a.rec.Name, b.rec.Name); c != 0 {
			return c
		}
		return byStart(a, b)
	})
	for i := 1; i < len(runs); i++ {
		if runs[i].rec.Name == runs[i-1].rec.Name {
			runs[i].retry = true
		}
	}
}

// phaseOf resolves a node's phase, honoring the retry flag.
func phaseOf(n *node) string {
	if n.retry {
		return PhaseRetry
	}
	return classify(n.rec.Name)
}

// cover partitions [from, to] into segments: child intervals claim their
// slice (recursively), and every gap between them is the span's own time.
// The returned segments are contiguous and exactly cover [from, to].
func cover(n *node, from, to time.Time, out []Segment, epoch time.Time) []Segment {
	self := func(a, b time.Time) []Segment {
		if !b.After(a) {
			return out
		}
		return append(out, Segment{
			Span:    n.rec.Name,
			Phase:   phaseOf(n),
			Proc:    n.rec.Proc,
			StartMS: ms(a.Sub(epoch)),
			DurMS:   ms(b.Sub(a)),
		})
	}
	cursor := from
	for _, c := range n.children {
		cs, ce := c.rec.Start, c.rec.End
		if ce.After(to) {
			ce = to
		}
		if !ce.After(cursor) {
			continue // entirely inside already-covered time
		}
		if cs.Before(cursor) {
			cs = cursor
		}
		if cs.After(to) {
			break
		}
		out = self(cursor, cs)
		out = cover(c, cs, ce, out, epoch)
		cursor = ce
		if !cursor.Before(to) {
			break
		}
	}
	out = self(cursor, to)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pickAnchor chooses the node the analysis anchors on: a campaign span if
// present anywhere in the forest, else an experiment span, else the longest
// forest root. The scan covers ALL nodes, not just roots: Summarize takes
// any record set, and in one where the campaign span hangs below a shorter
// root (a caller that merges a submitter's span with the campaign's
// archive), anchoring on the forest root would clamp the analysis to that
// root's interval and discard the campaign.
func pickAnchor(roots []*node) *node {
	score := func(n *node) int {
		switch {
		case strings.HasPrefix(n.rec.Name, "campaign:"):
			return 2
		case strings.HasPrefix(n.rec.Name, "experiment:"):
			return 1
		default:
			return 0
		}
	}
	var best *node
	consider := func(n *node, s int) {
		if best == nil {
			best = n
			return
		}
		sb := score(best)
		if s > sb || (s == sb && n.rec.End.Sub(n.rec.Start) > best.rec.End.Sub(best.rec.Start)) {
			best = n
		}
	}
	var walk func(n *node)
	walk = func(n *node) {
		if s := score(n); s > 0 {
			consider(n, s)
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	if best != nil {
		return best
	}
	// No campaign/experiment span anywhere: fall back to the longest root.
	for _, r := range roots {
		consider(r, 0)
	}
	return best
}

// subtreeEnd returns the latest End across a node's subtree — a mid-campaign
// snapshot or a cut-short archive can stamp a parent's End before a child's.
func subtreeEnd(n *node) time.Time {
	end := n.rec.End
	for _, c := range n.children {
		if ce := subtreeEnd(c); ce.After(end) {
			end = ce
		}
	}
	return end
}

// Summarize computes the critical path and per-phase attribution from span
// records alone, without the journal or the run directories.
func Summarize(recs []telemetry.SpanRecord) *Summary {
	return summarize(buildTree(recs))
}

// summarize is Summarize over the forest buildTree made of the records.
func summarize(roots []*node) *Summary {
	root := pickAnchor(roots)
	if root == nil {
		return &Summary{}
	}
	start, end := root.rec.Start, subtreeEnd(root)
	segs := cover(root, start, end, nil, start)
	sum := &Summary{
		TraceID:      root.rec.TraceID,
		Root:         root.rec.Name,
		Start:        start,
		End:          end,
		WallMS:       ms(end.Sub(start)),
		CriticalPath: segs,
	}
	sum.Phases = phaseTotals(segs, sum.WallMS)
	return sum
}

// phaseTotals folds segments into ordered per-phase totals.
func phaseTotals(segs []Segment, wallMS float64) []PhaseTotal {
	acc := make(map[string]float64)
	for _, s := range segs {
		acc[s.Phase] += s.DurMS
	}
	var out []PhaseTotal
	for _, p := range phaseOrder {
		if v, ok := acc[p]; ok {
			frac := 0.0
			if wallMS > 0 {
				frac = v / wallMS
			}
			out = append(out, PhaseTotal{Phase: p, MS: v, Fraction: frac})
		}
	}
	return out
}

// ReadSpans loads an experiment directory's span archive, spans.json.
func ReadSpans(dir string) ([]telemetry.SpanRecord, error) {
	data, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		return nil, fmt.Errorf("timeline: %w (was telemetry disabled?)", err)
	}
	recs, err := telemetry.ParseSpans(data)
	if err == nil && len(recs) == 0 {
		err = errors.New("no spans")
	}
	if err != nil {
		return nil, fmt.Errorf("timeline: spans.json: %w", err)
	}
	return recs, nil
}

// Assemble merges an experiment directory's archives into a Timeline.
func Assemble(dir string) (*Timeline, error) {
	recs, err := ReadSpans(dir)
	if err != nil {
		return nil, err
	}
	roots := buildTree(recs)
	tl := &Timeline{Summary: *summarize(roots), Spans: len(recs)}
	procs := map[string]bool{}
	for _, r := range recs {
		if r.Proc != "" && !procs[r.Proc] {
			procs[r.Proc] = true
			tl.Procs = append(tl.Procs, r.Proc)
		}
	}
	sort.Strings(tl.Procs)

	// Journal: campaign event count, the queue admission record that
	// extends the timeline leftward to submission time, and the attempts.
	events, err := eventlog.Replay(filepath.Join(dir, "events"))
	if err == nil {
		tl.Events = len(events)
		applyAdmission(tl, events)
	}

	// Per-run statistics from the archived run directories.
	tl.Runs = readRuns(dir, recs)
	attempts := runAttempts(events)
	for i := range tl.Runs {
		tl.Runs[i].Attempts = attempts[tl.Runs[i].Run]
	}
	tl.Replicas = replicaStats(roots)
	tl.Stragglers = findStragglers(tl.Runs, tl.Replicas)
	return tl, nil
}

// applyAdmission folds a journaled queue-admission event into the timeline:
// the campaign's observable interval starts at submission, and the
// submit→start gap becomes the queue-wait phase. Segment offsets shift so
// they stay relative to the (new) timeline start.
func applyAdmission(tl *Timeline, events []eventlog.Event) {
	for _, ev := range events {
		if ev.Typ != eventlog.TypeQueue || ev.Attrs["submitted"] == "" {
			continue
		}
		submitted, err := time.Parse(time.RFC3339Nano, ev.Attrs["submitted"])
		if err != nil || !submitted.Before(tl.Start) {
			continue // a later queue event may still carry a usable stamp
		}
		wait := tl.Start.Sub(submitted)
		tl.QueueWaitMS = ms(wait)
		tl.QueueUser = ev.Attrs["queue_user"]
		for i := range tl.CriticalPath {
			tl.CriticalPath[i].StartMS += tl.QueueWaitMS
		}
		tl.CriticalPath = append([]Segment{{
			Span: PhaseQueueWait, Phase: PhaseQueueWait,
			StartMS: 0, DurMS: tl.QueueWaitMS,
		}}, tl.CriticalPath...)
		tl.Start = submitted
		tl.WallMS = ms(tl.End.Sub(tl.Start))
		tl.Phases = phaseTotals(tl.CriticalPath, tl.WallMS)
		return
	}
}

// readRuns scans run_NNNN/metadata.json directories; the replica attribution
// comes from the span records ("run N" spans carry a replica attr).
func readRuns(dir string, recs []telemetry.SpanRecord) []RunStat {
	replicaOf := make(map[string]string)
	for _, r := range recs {
		if strings.HasPrefix(r.Name, "run ") && r.Attrs["replica"] != "" {
			replicaOf[r.Name] = r.Attrs["replica"]
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	out := make([]RunStat, 0, len(entries))
	var buf bytes.Buffer // one buffer for every run's file
	var name [24]byte    // "run N", the span a run's metadata belongs to
	for _, ent := range entries {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "run_") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, ent.Name(), "metadata.json"))
		if err != nil {
			continue
		}
		buf.Reset()
		_, err = buf.ReadFrom(f)
		f.Close()
		if err != nil {
			continue
		}
		m, err := results.DecodeRunMeta(buf.Bytes())
		if err != nil || m.FinishedAt.Before(m.StartedAt) {
			continue
		}
		out = append(out, RunStat{
			Run:     m.Run,
			Replica: replicaOf[string(strconv.AppendInt(append(name[:0], "run "...), int64(m.Run), 10))],
			DurMS:   ms(m.FinishedAt.Sub(m.StartedAt)),
			Failed:  m.Failed,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	return out
}

// runAttempts maps each run the journal mentions to its dispatch count:
// max(1, highest Attempt on the run's events). A retried run's events carry
// their attempt, and only once the run was dispatched at it; a first
// attempt's carry none.
func runAttempts(events []eventlog.Event) map[int]int {
	out := make(map[int]int)
	for _, ev := range events {
		if ev.Run != eventlog.NoRun {
			out[ev.Run] = max(out[ev.Run], ev.Attempt, 1)
		}
	}
	return out
}

// replicaStats computes per-lane busy/idle time from "replica:<name>" lane
// spans: busy is the union of the lane's child intervals, idle the rest.
func replicaStats(roots []*node) []ReplicaStat {
	var lanes []*node
	var collect func(n *node)
	collect = func(n *node) {
		if strings.HasPrefix(n.rec.Name, "replica:") {
			lanes = append(lanes, n)
		}
		for _, c := range n.children {
			collect(c)
		}
	}
	for _, r := range roots {
		collect(r)
	}
	var out []ReplicaStat
	for _, lane := range lanes {
		st := ReplicaStat{
			Name:   strings.TrimPrefix(lane.rec.Name, "replica:"),
			LaneMS: ms(lane.rec.End.Sub(lane.rec.Start)),
		}
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range lane.children {
			if strings.HasPrefix(c.rec.Name, "run ") {
				st.Runs++
			}
			ivs = append(ivs, iv{c.rec.Start, c.rec.End})
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
		var busy time.Duration
		var curA, curB time.Time
		for _, v := range ivs {
			if curB.IsZero() || v.a.After(curB) {
				busy += curB.Sub(curA)
				curA, curB = v.a, v.b
				continue
			}
			if v.b.After(curB) {
				curB = v.b
			}
		}
		busy += curB.Sub(curA)
		st.BusyMS = ms(busy)
		if st.LaneMS > 0 {
			st.IdleFraction = 1 - st.BusyMS/st.LaneMS
			if st.IdleFraction < 0 {
				st.IdleFraction = 0
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// stragglerRatio is how far past the median a run or replica must be to be
// flagged; stragglerFloorMS suppresses flags in the noise band.
const (
	stragglerRatio   = 1.5
	stragglerFloorMS = 10.0
)

func findStragglers(runs []RunStat, replicas []ReplicaStat) []Straggler {
	var out []Straggler
	if len(runs) >= 3 {
		durs := make([]float64, len(runs))
		slowest := 0
		for i, r := range runs {
			durs[i] = r.DurMS
			if r.DurMS > runs[slowest].DurMS {
				slowest = i
			}
		}
		med := median(durs)
		if sl := runs[slowest]; med > 0 && sl.DurMS > med*stragglerRatio && sl.DurMS-med > stragglerFloorMS {
			out = append(out, Straggler{
				Kind: "run", Name: fmt.Sprintf("run %d", sl.Run),
				DurMS: sl.DurMS, MedianMS: med, Ratio: sl.DurMS / med,
			})
		}
	}
	if len(replicas) >= 2 {
		busys := make([]float64, len(replicas))
		slowest := 0
		for i, r := range replicas {
			busys[i] = r.BusyMS
			if r.BusyMS > replicas[slowest].BusyMS {
				slowest = i
			}
		}
		med := median(busys)
		if sl := replicas[slowest]; med > 0 && sl.BusyMS > med*stragglerRatio && sl.BusyMS-med > stragglerFloorMS {
			out = append(out, Straggler{
				Kind: "replica", Name: sl.Name,
				DurMS: sl.BusyMS, MedianMS: med, Ratio: sl.BusyMS / med,
			})
		}
	}
	return out
}

func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
