package publish

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"testing"
)

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }

// A destination that fails stops the producer with that error and leaves
// nothing blocked: Close returns it too.
func TestMemberWriterReportsWriteError(t *testing.T) {
	full := errors.New("disk full")
	mw := newMemberWriter(failingWriter{full})
	var err error
	for i := 0; i < 64 && err == nil; i++ {
		_, err = mw.Write(make([]byte, memberSize))
	}
	if !errors.Is(err, full) {
		t.Errorf("Write error after 64 members = %v, want %v", err, full)
	}
	if err := mw.Close(); !errors.Is(err, full) {
		t.Errorf("Close error = %v, want %v", err, full)
	}
}

// FuzzMemberWriter: whatever is written, in whatever chunk sizes, gunzips
// back to itself. The payload is pattern tiled to members×memberSize+delta
// bytes, so the corpus under testdata/fuzz pins the sizes around a member
// boundary (0, 1, member−1, member, member+1, 3×member) in a few bytes each
// and follows memberSize if it ever changes.
func FuzzMemberWriter(f *testing.F) {
	f.Fuzz(func(t *testing.T, pattern []byte, members uint8, delta int16, chunk uint16) {
		size := max(0, int(members%4)*memberSize+int(delta))
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		payload := bytes.Repeat(pattern, size/len(pattern)+1)[:size]

		var out bytes.Buffer
		mw := newMemberWriter(&out)
		for rest := payload; len(rest) > 0; {
			n := min(int(chunk)+1, len(rest))
			if _, err := mw.Write(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		gz, err := gzip.NewReader(&out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(gz)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("%d bytes in chunks of %d came back as %d bytes", size, int(chunk)+1, len(got))
		}
	})
}
