package eventlog

import (
	"bufio"
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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
// per experiment, and the controller's queue directory, holding JSONL
// segment files (events-00000.jsonl, ...) that rotate at a size limit.
// Appends are whole lines written in one syscall; a crash can at worst tear
// the final line, which Open truncates away and Replay tolerates —
// everything before it replays exactly.
type Journal struct {
	mu       sync.Mutex
	dir      string
	segLimit int64
	f        *os.File
	size     int64
	segIdx   int
	// segs are the segment indices the journal holds, ascending: those
	// found at open, then each one it rotates to. Replays read them instead
	// of listing the directory.
	segs    []int
	lastSeq uint64
	// line is the buffer every Append encodes into, reused under mu.
	line []byte
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
	// The newest segment is continued once its torn tail is cut; if it holds
	// no whole line (a crash mid-rotation), the last seq is in an older one.
	for i := len(segs) - 1; i >= 0 && j.lastSeq == 0; i-- {
		if err := j.recoverTail(j.segPath(segs[i])); err != nil {
			return nil, err
		}
	}
	if len(segs) == 0 {
		segs = []int{0}
	}
	j.segIdx = segs[len(segs)-1]
	j.segs = segs
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
// after reopen continue the stream without overlapping replay. It reads a
// line at a time: the replay that usually follows reads the segment whole.
func (j *Journal) recoverTail(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("eventlog: journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), math.MaxInt)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		n := bytes.IndexByte(data, '\n') + 1
		if n == 0 && atEOF {
			n = len(data)
		}
		if n == 0 {
			return 0, nil, nil
		}
		return n, data[:n], nil
	})
	var whole int64 // up to the end of the last whole line
	for sc.Scan() {
		line := sc.Bytes()
		if line[len(line)-1] != '\n' {
			if err := os.Truncate(path, whole); err != nil {
				return fmt.Errorf("eventlog: journal: truncate torn tail: %w", err)
			}
			break
		}
		whole += int64(len(line))
		if seq, ok := lineSeq(line[:len(line)-1]); ok && seq > j.lastSeq {
			j.lastSeq = seq
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("eventlog: journal: %w", err)
	}
	return nil
}

// lineSeq reads the Seq of one journal line. AppendJSON writes it first, so
// only a line that does not start with it is decoded whole.
func lineSeq(line []byte) (uint64, bool) {
	rest, found := bytes.CutPrefix(line, []byte(`{"seq":`))
	digits, _, _ := bytes.Cut(rest, []byte(","))
	if seq, err := strconv.ParseUint(string(digits), 10, 64); found && err == nil {
		return seq, true
	}
	ev, err := Decode(line)
	return ev.Seq, err == nil
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
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("eventlog: journal: closed")
	}
	line, err := ev.AppendJSON(j.line[:0])
	if err != nil {
		return err
	}
	line = append(line, '\n')
	j.line = line
	if j.size > 0 && j.size+int64(len(line)) > j.segLimit {
		// Sync covers the active segment only: this one is made durable now.
		if err := errors.Join(j.f.Sync(), j.f.Close()); err != nil {
			return fmt.Errorf("eventlog: journal: %w", err)
		}
		j.segIdx++
		if err := j.openSegment(); err != nil {
			return err
		}
		j.segs = append(j.segs, j.segIdx)
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("eventlog: journal: %w", err)
	}
	j.size += int64(len(line))
	if ev.Seq > j.lastSeq {
		j.lastSeq = ev.Seq
	}
	return nil
}

// LastSeq returns the highest sequence number the journal has seen (from
// recovery or appends).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastSeq
}

// Sync flushes the active segment to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("eventlog: journal: closed")
	}
	return j.f.Sync()
}

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

// ReplaySince reads the events with Seq > after from the journal under dir,
// listing its segments first: the replay of a finished experiment's journal.
func ReplaySince(dir string, after uint64) ([]Event, error) {
	idxs, err := segments(dir)
	if err != nil {
		return nil, err
	}
	return replay(dir, idxs, after)
}

// ReplaySince reads the events with Seq > after from the segments the open
// journal holds, without listing its directory.
func (j *Journal) ReplaySince(after uint64) ([]Event, error) {
	j.mu.Lock()
	segs := j.segs[:len(j.segs):len(j.segs)] // a later rotation appends beyond it
	j.mu.Unlock()
	return replay(j.dir, segs, after)
}

// replay reads the events with Seq > after from the segments idxs of the
// journal under dir. It reads segment files directly, so it works on live
// journals (appends are line-atomic within one process) and on finished
// experiments alike. The strings of one replay are interned: the node, phase
// and type names every event repeats are shared.
func replay(dir string, idxs []int, after uint64) ([]Event, error) {
	var events []Event
	strs := make(map[string]string)
	for si, idx := range idxs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(idx)))
		if err != nil {
			return nil, fmt.Errorf("eventlog: journal: %w", err)
		}
		if si == len(idxs)-1 {
			data = data[:bytes.LastIndexByte(data, '\n')+1]
		}
		events = slices.Grow(events, bytes.Count(data, []byte{'\n'}))
		for li := 1; len(data) > 0; li++ {
			end := bytes.IndexByte(data, '\n')
			if end < 0 {
				end = len(data)
			}
			line := data[:end]
			data = data[min(end+1, len(data)):]
			if len(line) == 0 {
				continue
			}
			ev, err := decode(line, strs)
			if err != nil {
				return nil, fmt.Errorf("eventlog: journal: segment %d line %d: %w", idx, li, err)
			}
			if ev.Seq > after {
				events = append(events, ev)
			}
		}
	}
	slices.SortStableFunc(events, func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return events, nil
}
