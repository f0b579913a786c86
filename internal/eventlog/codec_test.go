package eventlog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// plainEvent carries Event's fields and tags but no methods, so
// encoding/json encodes and decodes it by reflection alone whatever methods
// Event grows.
type plainEvent Event

// campaignJournal synthesizes the journal of an Appendix-A campaign on two
// hosts: the boot, one setup script per host, then runs progress events,
// each followed by both hosts' multi-line exec output. With 60 runs that is
// 63 progress and 122 exec events, the shape `posctl run -f
// experiments/campaigns/appendix-pos.yml` journals.
func campaignJournal(runs int) []Event {
	at := time.Date(2021, 10, 12, 11, 20, 32, 438802242, time.UTC)
	var evs []Event
	add := func(ev Event) {
		ev.Seq = uint64(len(evs) + 1)
		ev.At = at.Add(time.Duration(len(evs)) * 1447 * time.Microsecond)
		evs = append(evs, ev)
	}
	hosts := []string{"vriga", "vtartu"}
	add(Event{Typ: TypeProgress, Phase: "setup", Run: NoRun, Message: "booting hosts"})
	for _, h := range hosts {
		add(Event{Typ: TypeProgress, Node: h, Phase: "setup", Run: NoRun, Message: "running setup script"})
	}
	for _, h := range hosts {
		out := "configuring " + h + "\nsynced setup_done\n"
		add(Event{Typ: TypeExec, Node: h, Phase: "setup", Run: NoRun, Message: out, Attrs: map[string]string{"bytes": fmt.Sprint(len(out))}})
	}
	for run := 0; run < runs; run++ {
		rate, size := 10000*(1+run%10), []int{64, 128, 256, 512, 1024, 1500}[run/10%6]
		add(Event{Typ: TypeProgress, Phase: "measurement", Run: run, TotalRuns: runs,
			Message: fmt.Sprintf("pkt_rate=%d,pkt_sz=%d", rate, size)})
		for _, h := range hosts {
			var out strings.Builder
			fmt.Fprintf(&out, "run %d rate=%d size=%d\n", run, rate, size)
			for dev := 0; dev < 6; dev++ {
				fmt.Fprintf(&out, "[Device: id=%d] TX: %.4f Mpps, %.2f Mbit/s (%.2f Mbit/s with framing)\n",
					dev%2, float64(rate)/1e6, float64(rate*size*8)/1e6, float64(rate*(size+20)*8)/1e6)
			}
			fmt.Fprintf(&out, "[Latency] avg: %d ns, min: 5525 ns, max: 12038 ns, samples: 2000\nsynced run_done\n", 7000+run*13)
			add(Event{Typ: TypeExec, Node: h, Phase: "measurement", Run: run, TotalRuns: runs,
				Message: out.String(), Attrs: map[string]string{"bytes": fmt.Sprint(out.Len())}})
		}
	}
	return evs
}

// FuzzEventCodec holds the event codecs to encoding/json. Whatever the
// bytes, an event Decode accepts is one encoding/json accepts too, decoded
// to the same value. And every event encoding/json reads, AppendJSON writes
// byte for byte as json.Marshal writes it (or refuses as Marshal refuses a
// time RFC 3339 cannot carry), and Decode reads what it wrote as
// encoding/json reads it.
func FuzzEventCodec(f *testing.F) {
	for i, ev := range campaignJournal(2) {
		if i < 9 {
			line, err := ev.AppendJSON(nil)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(line)
		}
	}
	for _, seed := range strings.Split(olderSegment, "\n") {
		f.Add([]byte(seed))
	}
	for _, seed := range []string{
		`{"seq":18446744073709551615,"at":"2021-10-12T11:20:32Z","type":"log","run":-1}`,
		`{"seq":18446744073709551616}`, `{"seq":-1}`, `{"seq":-0}`, `{"seq":1.0}`, `{"seq":1e3}`,
		`{"run":9223372036854775807,"total_runs":-9223372036854775808,"attempt":-0}`,
		`{}`, `{"type":"queue","attrs":null}`, `{"attrs":{}}`, `{"attrs":{"b":"2","a":"1","a":"3"}}`,
		`{"at":"2021-10-12T11:20:32.5+02:00"}`, `{"at":"2021-10-12T11:20:32-09:30"}`, `{"at":"2021-10-12T11:20:32+24:00"}`,
		`{"at":"0000-01-01T00:00:00Z"}`, `{"at":"2021-10-12T11:20:32Z"}`, `{"at":null}`,
		`{"message":"<b>& \ud800\"\\\n","error":"` + "\xff\x00" + `"}`,
		`{"SEQ":1}`, `{"type":"exec","type":"log"}`, `{"trace_id":"x"}`, `{"seq":1} {}`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		want := plainEvent{Run: NoRun}
		jsonErr := json.Unmarshal(data, &want)
		if err == nil && jsonErr != nil {
			t.Fatalf("Decode accepts %q, encoding/json rejects it: %v", data, jsonErr)
		}
		if err == nil && !reflect.DeepEqual(got, Event(want)) {
			t.Fatalf("%q: Decode %+v, encoding/json %+v", data, got, want)
		}
		if jsonErr != nil {
			return
		}
		marshaled, marshalErr := json.Marshal(want)
		ev := Event(want)
		line, err := ev.AppendJSON([]byte("x"))
		if (err == nil) != (marshalErr == nil) {
			t.Fatalf("%+v: AppendJSON err = %v, json.Marshal err = %v", want, err, marshalErr)
		}
		if err != nil {
			return
		}
		if line = line[1:]; !bytes.Equal(line, marshaled) {
			t.Fatalf("AppendJSON  %s\njson.Marshal %s", line, marshaled)
		}
		reread := plainEvent{Run: NoRun}
		if err := json.Unmarshal(line, &reread); err != nil {
			t.Fatal(err)
		}
		if back, err := Decode(line); err != nil || !reflect.DeepEqual(back, Event(reread)) {
			t.Fatalf("Decode(AppendJSON) = %+v, %v; encoding/json reads %+v", back, err, reread)
		}
	})
}

// journalReplayAllocBudget is 15 % above the 2.86 objects per event a replay
// of the open journal (Journal.ReplaySince, what every SSE reconnect runs)
// allocated for the synthesized 185-event campaign journal when the budget
// was set (go1.24, on top of adc6bfd): two per exec output, its attribute
// map, and the node, phase and type names interned once per replay. Listing
// the directory first, as Replay of a finished journal does and every
// replay did at adc6bfd, costs 2.91; through encoding/json, as at 5561098,
// 14.11 objects per event, and a warm Append 4.
const journalReplayAllocBudget = 3.29

// TestJournalAllocations: once its buffer has grown, a journal append
// encodes and writes an event without allocating, and a replay allocates a
// few objects per event, not one per field.
func TestJournalAllocations(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	evs := campaignJournal(60)
	defer j.Close()
	for _, ev := range evs {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}

	warm, err := OpenJournal(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	i := 0
	appendNext := func() {
		if err := warm.Append(evs[i%len(evs)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range evs {
		appendNext()
	}
	if allocs := testing.AllocsPerRun(len(evs), appendNext); allocs != 0 {
		t.Errorf("a warm Append allocates %.1f objects per event, want 0", allocs)
	}

	var replayed []Event
	allocs := testing.AllocsPerRun(20, func() {
		if replayed, err = j.ReplaySince(0); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(replayed, evs) {
		t.Fatalf("Replay returned %d events, not the %d appended", len(replayed), len(evs))
	}
	perEvent := allocs / float64(len(evs))
	t.Logf("ReplaySince of %d events: %.0f objects, %.2f per event (budget %.2f)", len(evs), allocs, perEvent, journalReplayAllocBudget)
	if perEvent > journalReplayAllocBudget {
		t.Errorf("ReplaySince allocates %.2f objects per event, budget %.2f", perEvent, journalReplayAllocBudget)
	}
}
