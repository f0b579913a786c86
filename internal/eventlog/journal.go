package eventlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// DefaultSegmentLimit is the size at which a journal segment rotates.
const DefaultSegmentLimit = 4 << 20 // 4 MiB

const (
	segmentPrefix = "events-"
	segmentSuffix = ".jsonl"
)

// Journal is the append-only on-disk form of the event stream: one directory
// per experiment holding JSONL segment files (events-00000.jsonl, ...) that
// rotate at a size limit. Appends are whole lines written in one syscall;
// a crash can at worst tear the final line, which Open truncates away and
// Replay tolerates — everything before it replays exactly.
type Journal struct {
	mu       sync.Mutex
	dir      string
	segLimit int64
	f        *os.File
	size     int64
	segIdx   int
	lastSeq  uint64
}

// OpenJournal opens (creating if needed) the journal rooted at dir. An
// existing journal is continued: the highest segment is re-opened for append
// after truncating any torn trailing line, so a crashed controller picks up
// where the stream broke off. segLimit <= 0 selects DefaultSegmentLimit.
func OpenJournal(dir string, segLimit int64) (*Journal, error) {
	if segLimit <= 0 {
		segLimit = DefaultSegmentLimit
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("eventlog: journal: %w", err)
	}
	j := &Journal{dir: dir, segLimit: segLimit}
	segs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		j.segIdx = segs[len(segs)-1]
		if err := j.recoverTail(j.segPath(j.segIdx)); err != nil {
			return nil, err
		}
	}
	if err := j.openSegment(); err != nil {
		return nil, err
	}
	return j, nil
}

func (j *Journal) segPath(idx int) string { return filepath.Join(j.dir, segmentName(idx)) }

func segmentName(idx int) string {
	return fmt.Sprintf("%s%05d%s", segmentPrefix, idx, segmentSuffix)
}

// segments lists the existing segment indices in ascending order. Only the
// canonical names the journal itself writes count: a stray events-0.jsonl or
// events-+7.jsonl beside the real segments is not part of the journal, so
// every listed index names exactly the file segmentName rebuilds.
func segments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("eventlog: journal: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix))
		if err != nil || n < 0 || segmentName(n) != name || e.IsDir() {
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// recoverTail truncates a torn trailing line (no final newline) left by a
// crash mid-append and records the last sequence number seen, so appends
// after reopen continue the stream without overlapping replay.
func (j *Journal) recoverTail(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("eventlog: journal: %w", err)
	}
	if n := len(data); n > 0 && data[n-1] != '\n' {
		cut := bytes.LastIndexByte(data, '\n') + 1
		if err := os.Truncate(path, int64(cut)); err != nil {
			return fmt.Errorf("eventlog: journal: truncate torn tail: %w", err)
		}
		data = data[:cut]
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		if ev, err := Decode(line); err == nil && ev.Seq > j.lastSeq {
			j.lastSeq = ev.Seq
		}
	}
	return nil
}

// openSegment opens the current segment index for append.
func (j *Journal) openSegment() error {
	f, err := os.OpenFile(j.segPath(j.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("eventlog: journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("eventlog: journal: %w", err)
	}
	j.f, j.size = f, st.Size()
	return nil
}

// Append writes one event as a JSONL line, rotating to a fresh segment first
// when the current one is at its size limit.
func (j *Journal) Append(ev Event) error {
	line, err := ev.Encode()
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("eventlog: journal: closed")
	}
	if j.size > 0 && j.size+int64(len(line)) > j.segLimit {
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("eventlog: journal: %w", err)
		}
		j.segIdx++
		if err := j.openSegment(); err != nil {
			return err
		}
		journalRotations.Inc()
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("eventlog: journal: %w", err)
	}
	j.size += int64(len(line))
	if ev.Seq > j.lastSeq {
		j.lastSeq = ev.Seq
	}
	journalBytes.Add(float64(len(line)))
	return nil
}

// LastSeq returns the highest sequence number the journal has seen (from
// recovery or appends).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Dir returns the journal's root directory.
func (j *Journal) Dir() string { return j.dir }

// Close closes the active segment. Further appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return fmt.Errorf("eventlog: journal: %w", err)
	}
	return nil
}

// Replay reads every event recorded under dir in sequence order. A torn
// trailing line in the newest segment (crash mid-append: no final newline)
// is skipped, exactly as OpenJournal truncates it; a torn or corrupt line
// anywhere else is an error — the journal's contract is that only the very
// tail can be damaged.
func Replay(dir string) ([]Event, error) {
	return ReplaySince(dir, 0)
}

// ReplaySince reads the events with Seq > after. It reads segment files
// directly, so it works on live journals (appends are line-atomic within one
// process) and on finished experiments alike.
func ReplaySince(dir string, after uint64) ([]Event, error) {
	idxs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	var events []Event
	for si, idx := range idxs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			return nil, fmt.Errorf("eventlog: journal: %w", err)
		}
		if si == len(idxs)-1 {
			data = data[:bytes.LastIndexByte(data, '\n')+1]
		}
		lines := bytes.Split(data, []byte{'\n'})
		for li, line := range lines {
			if len(line) == 0 {
				continue
			}
			ev, err := Decode(line)
			if err != nil {
				return nil, fmt.Errorf("eventlog: journal: segment %d line %d: %w", idx, li+1, err)
			}
			if ev.Seq > after {
				events = append(events, ev)
			}
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].Seq < events[b].Seq })
	return events, nil
}
