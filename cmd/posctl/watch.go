package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"

	"pos/internal/api"
	"pos/internal/eventlog"
)

// replicaState is what watch has learned about one replica from its events.
type replicaState struct {
	phase       string
	run, total  int
	message     string
	retries     int
	quarantined bool
	alive       bool
	events      int
}

// applyEvent folds one event into the per-replica status board.
func applyEvent(states map[string]*replicaState, ev eventlog.Event) {
	if ev.Replica == "" {
		return
	}
	st := states[ev.Replica]
	if st == nil {
		st = &replicaState{alive: true}
		states[ev.Replica] = st
	}
	st.events++
	switch ev.Typ {
	case "heartbeat":
		st.alive = ev.Message == "up"
	case "progress":
		if ev.Phase != "" {
			st.phase = ev.Phase
		}
		if ev.TotalRuns > 0 {
			st.run, st.total = ev.Run, ev.TotalRuns
		}
		st.message = ev.Message
		if strings.Contains(ev.Message, "requeueing") {
			st.retries++
		}
		if strings.Contains(ev.Message, "quarantined") {
			st.quarantined = true
			st.alive = false
		}
	}
}

// renderEvent formats one event as a log line for humans. Runs count from 1,
// so the last run of a 60-run sweep reads 60/60.
func renderEvent(ev eventlog.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  ", ev.At.Format("15:04:05.000"))
	if ev.Replica != "" {
		fmt.Fprintf(&b, "%-10s ", ev.Replica)
	}
	if ev.Phase != "" {
		fmt.Fprintf(&b, "%-12s ", ev.Phase)
	}
	if ev.TotalRuns > 0 {
		fmt.Fprintf(&b, "run %3d/%d  ", ev.Run+1, ev.TotalRuns)
	}
	if ev.Node != "" {
		fmt.Fprintf(&b, "[%s] ", ev.Node)
	}
	switch ev.Typ {
	case "exec":
		bytes := ev.Attrs["bytes"]
		fmt.Fprintf(&b, "[output %s bytes", bytes)
		if ev.Attrs["truncated"] == "true" {
			b.WriteString(", truncated")
		}
		b.WriteString("]")
	case "heartbeat":
		fmt.Fprintf(&b, "[heartbeat %s]", ev.Message)
	case "log":
		if ev.Level != "" {
			fmt.Fprintf(&b, "%s: ", ev.Level)
		}
		b.WriteString(ev.Message)
	case "queue":
		fmt.Fprintf(&b, "[queue] %s", ev.Message)
	case "health":
		fmt.Fprintf(&b, "[health] %s", ev.Message)
	case "events.dropped":
		fmt.Fprintf(&b, "WARNING: %s events dropped (consumer too slow) — resume from the journal with posctl watch -last, or replay it with posctl watch -dir",
			ev.Attrs["dropped"])
	default:
		b.WriteString(ev.Message)
	}
	if ev.Attempt > 1 {
		fmt.Fprintf(&b, "  (attempt %d)", ev.Attempt)
	}
	if ev.Error != "" {
		fmt.Fprintf(&b, "  ERR: %s", ev.Error)
	}
	return b.String()
}

// renderBoard prints the final per-replica status table.
func renderBoard(states map[string]*replicaState) string {
	var b strings.Builder
	b.WriteString("\nreplica     phase         run      retries  quarantined  alive  events\n")
	for _, name := range replicaNames(states) {
		st := states[name]
		run := "-"
		if st.total > 0 {
			run = fmt.Sprintf("%d/%d", st.run+1, st.total)
		}
		fmt.Fprintf(&b, "%-11s %-13s %-8s %-8d %-12v %-6v %d\n",
			name, st.phase, run, st.retries, st.quarantined, st.alive, st.events)
	}
	return b.String()
}

func replicaNames(m map[string]*replicaState) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// cmdWatch shows an event record: a controller's live stream over SSE
// (-addr), or a finished experiment's journal replayed from disk (-dir) —
// the same sequence a live watcher saw. Either way it keeps a per-replica
// status board, printed when the stream ends.
func cmdWatch(args []string) error {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	addr := fs.String("addr", "", "controller API address host:port (the live stream)")
	dir := fs.String("dir", "", "experiment directory whose journal to replay (the results dir printed by posctl run)")
	replica := fs.String("replica", "", "only this replica's events")
	phase := fs.String("phase", "", "only this phase's events (setup, measurement)")
	jsonOut := fs.Bool("json", false, "emit raw event JSON lines for piping")
	last := fs.Uint64("last", 0, "live stream only: resume after this sequence number (journal catch-up)")
	fs.Parse(args)
	if (*addr == "") == (*dir == "") {
		return fmt.Errorf("watch: one of -addr (the host:port printed by posctl serve) or -dir (an experiment directory) required")
	}
	if *dir != "" && *last != 0 {
		return fmt.Errorf("watch: -last resumes a live stream; -dir replays the whole journal")
	}
	states := map[string]*replicaState{}
	var line []byte
	show := func(ev eventlog.Event) error {
		if *jsonOut {
			var err error
			if line, err = ev.AppendJSON(line[:0]); err != nil {
				return err
			}
			line = append(line, '\n')
			_, err = os.Stdout.Write(line)
			return err
		}
		applyEvent(states, ev)
		fmt.Println(renderEvent(ev))
		return nil
	}
	var err error
	if *dir != "" {
		err = replayJournal(*dir, *replica, *phase, show)
	} else {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		err = api.NewClient(*addr).StreamEvents(ctx, api.EventStreamOptions{
			LastID: *last, Replica: *replica, Phase: *phase,
		}, show)
		if ctx.Err() != nil {
			err = nil // Ctrl-C is the normal way to leave a watch
		}
	}
	if !*jsonOut && len(states) > 0 {
		fmt.Print(renderBoard(states))
	}
	return err
}

// replayJournal feeds a finished experiment's journal to show, filtered the
// way the controller filters its live stream. dir is the experiment
// directory or its events/ journal.
func replayJournal(dir, replica, phase string, show func(eventlog.Event) error) error {
	if fi, err := os.Stat(filepath.Join(dir, "events")); err == nil && fi.IsDir() {
		dir = filepath.Join(dir, "events")
	}
	evs, err := eventlog.Replay(dir)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("watch: no journal under %s", dir)
	}
	for _, ev := range evs {
		if (replica != "" && ev.Replica != replica) || (phase != "" && ev.Phase != phase) {
			continue
		}
		if err := show(ev); err != nil {
			return err
		}
	}
	return nil
}
