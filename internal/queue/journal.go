package queue

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The queue journal is a single append-only JSONL file recording every
// submission-state transition. It follows the event-journal discipline
// (internal/eventlog): whole-line single-syscall appends so a crash can tear
// at most the final line, and torn-tail truncation on open. Replaying the
// file rebuilds the queue exactly: a submission with no terminal record is
// still owed work, whether it was queued or mid-flight when the controller
// died.

// Journal operations. "admit" without a later terminal op means the
// controller died while the campaign ran — recovery re-queues it.
const (
	opSubmit  = "submit"
	opAdmit   = "admit"
	opDone    = "done"
	opFail    = "fail"
	opCancel  = "cancel"
	opRequeue = "requeue"
)

// record is one journal line.
type record struct {
	At time.Time `json:"at"`
	Op string    `json:"op"`
	// ID names the submission for every op after submit.
	ID int `json:"id,omitempty"`
	// Sub is the full submission, present on submit only.
	Sub *Submission `json:"sub,omitempty"`
	// Error carries the failure reason on fail records.
	Error string `json:"error,omitempty"`

	// legacySpec marks a submit record whose spec was a key=value map, the
	// form journals had before the spec became opaque text.
	legacySpec bool
}

// journal is the append side. Appends are serialized by the controller's
// state mutex ordering, but the journal keeps its own lock so Sync/Close are
// independently safe.
type journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
}

// openJournal reads back the full history at path (recovering a torn tail)
// and opens the file for appending.
func openJournal(path string) (*journal, []record, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("queue: journal dir: %w", err)
	}
	recs, err := replayJournal(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("queue: open journal: %w", err)
	}
	return &journal{f: f, path: path}, recs, nil
}

// replayJournal parses the journal, truncating a torn final line in place
// (the crash contract: only the tail may be damaged). An undecodable final
// line is likewise dropped; an undecodable interior line is corruption and
// an error.
func replayJournal(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("queue: read journal: %w", err)
	}
	if n := len(data); n > 0 && data[n-1] != '\n' {
		cut := bytes.LastIndexByte(data, '\n') + 1
		if err := os.Truncate(path, int64(cut)); err != nil {
			return nil, fmt.Errorf("queue: recover torn journal tail: %w", err)
		}
		data = data[:cut]
	}
	var recs []record
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		err := json.Unmarshal(line, &r)
		var te *json.UnmarshalTypeError
		if errors.As(err, &te) && te.Field == "sub.spec" && r.Sub != nil {
			// The rest of the line decoded; recovery fails the submission
			// rather than launch it without the spec it was submitted with.
			r.legacySpec, err = true, nil
		}
		if err != nil {
			if i == len(lines)-2 { // last non-empty line before trailing ""
				break
			}
			return nil, fmt.Errorf("queue: corrupt journal line %d: %w", i+1, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// append writes one record as a single whole-line syscall.
func (j *journal) append(r record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("queue: encode record: %w", err)
	}
	line = append(line, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("queue: journal closed")
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("queue: append record: %w", err)
	}
	return nil
}

// Sync flushes appended records to stable storage.
func (j *journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.f.Sync()
}

// Close flushes and closes the journal file.
func (j *journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
