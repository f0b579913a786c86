package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pos/internal/eventlog"
)

// journalPath is where older controllers kept the queue, a record per line
// through encoding/json. Open imports it once and renames it; a queue.jsonl
// still present means no import finished, and the import starts over.
func journalPath(dir string) string { return filepath.Join(dir, "queue.jsonl") }

// legacyStates maps a legacy record's op to the state it entered; a
// "requeue" is a queued transition without the submission.
var legacyStates = map[string]State{
	"submit": StateQueued, "requeue": StateQueued, "admit": StateRunning,
	"done": StateDone, "fail": StateFailed, "cancel": StateCancelled,
}

// legacyRecord is one queue.jsonl line.
type legacyRecord struct {
	At    time.Time   `json:"at"`
	Op    string      `json:"op"`
	ID    int         `json:"id,omitempty"`
	Sub   *Submission `json:"sub,omitempty"`
	Error string      `json:"error,omitempty"`
}

// errLegacySpec fails a still-owed submission with a key=value spec map.
var errLegacySpec = errors.New("queue: submitted with a key=value spec map by an older controller; resubmit it with a spec file")

// importLegacy appends the records of dir's queue.jsonl, if there is one, to
// a fresh event journal in dir as queue transitions, syncs it, and renames
// the file away. A submission whose spec was a key=value map, and that no
// record finished, gets a failed transition stamped now.
func importLegacy(dir string, now time.Time) error {
	data, err := os.ReadFile(journalPath(dir))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("queue: read legacy journal: %w", err)
	}
	stale, _ := filepath.Glob(filepath.Join(dir, "events-*.jsonl"))
	for _, p := range stale {
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("queue: drop partial import: %w", err)
		}
	}
	jl, err := eventlog.OpenJournal(dir, 0)
	if err != nil {
		return err
	}
	defer jl.Close()
	var owed []int // legacy-spec submissions no record finished, by ID
	lines := bytes.Split(data[:bytes.LastIndexByte(data, '\n')+1], []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r legacyRecord
		err := json.Unmarshal(line, &r)
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Field == "sub.spec" && r.Sub != nil {
			// The rest of the line decoded: the submission is failed below
			// rather than launched without the spec it was submitted with.
			owed, err = append(owed, r.Sub.ID), nil
		}
		if err != nil {
			if i == len(lines)-2 { // an undecodable last line is a torn tail
				break
			}
			return fmt.Errorf("queue: corrupt legacy journal line %d: %w", i+1, err)
		}
		st, ok := legacyStates[r.Op]
		ev := transition(r.ID, st, r.At, r.Error)
		switch {
		case !ok:
			continue
		case r.Op == "submit" && r.Sub == nil:
			return errors.New("queue: legacy submit record without submission")
		case r.Op == "submit":
			ev = submitEvent(*r.Sub)
		case st != StateQueued && st != StateRunning: // finished
			owed = slices.DeleteFunc(owed, func(id int) bool { return id == r.ID })
		}
		if err := appendNext(jl, ev); err != nil {
			return err
		}
	}
	for _, id := range owed {
		if err := appendNext(jl, transition(id, StateFailed, now, errLegacySpec.Error())); err != nil {
			return err
		}
	}
	if err := jl.Sync(); err != nil {
		return err
	}
	if err := os.Rename(journalPath(dir), journalPath(dir)+".imported"); err != nil {
		return fmt.Errorf("queue: retire legacy journal: %w", err)
	}
	d, err := os.Open(dir) // the rename is durable before anything is appended
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return err
}
