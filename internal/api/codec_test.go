package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"pos/internal/eventlog"
)

// plainRequest and plainView carry the bodies' fields and tags but no
// methods, so encoding/json encodes and decodes them by reflection alone.
type (
	plainRequest CampaignRequest
	plainView    CampaignView
)

// TestCampaignCodecsMatchEncodingJSON holds the campaign bodies' hand
// codecs to encoding/json: AppendJSON writes what json.Marshal writes, byte
// for byte, and DecodeJSON reads that to what json.Unmarshal reads.
func TestCampaignCodecsMatchEncodingJSON(t *testing.T) {
	at := time.Date(2021, 10, 12, 11, 20, 32, 230471000, time.UTC)
	zone := time.FixedZone("CEST", 2*3600)
	for _, r := range []CampaignRequest{
		{},
		{User: "alice", Nodes: []string{"n1", "n2", "n3", "n4"}, Minutes: 1},
		{User: "bob", Name: "sweep", Nodes: []string{}, Minutes: 30, Priority: -2, ExpDir: "/srv/exp", Spec: "flavor: vpos\nseed: 3\n"},
		{User: "<script>&amp;", Name: "line sep", Nodes: []string{"", "\xff"}, Priority: 7, Spec: "\t\"quoted\"\\"},
	} {
		hand := r.AppendJSON([]byte("x"))[1:]
		want, err := json.Marshal(plainRequest(r))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hand, want) {
			t.Errorf("CampaignRequest.AppendJSON\n  %s\njson.Marshal\n  %s", hand, want)
		}
		var got CampaignRequest
		var fromJSON plainRequest
		if err := got.DecodeJSON(hand); err != nil {
			t.Fatalf("DecodeJSON(%s): %v", hand, err)
		}
		if err := json.Unmarshal(hand, &fromJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, CampaignRequest(fromJSON)) {
			t.Errorf("DecodeJSON(%s) = %+v, encoding/json %+v", hand, got, fromJSON)
		}
	}
	for _, v := range []CampaignView{
		{},
		{ID: 1, User: "alice", Name: "c0-000001", State: "queued", Nodes: []string{"n1", "n2"}, Minutes: 1, Position: 3, Submitted: at},
		{ID: 2, User: "bob", State: "done", Nodes: []string{}, Priority: 1, Spec: "replicas: 2\n", AllocationID: 9,
			Submitted: at.In(zone), Admitted: at.Add(time.Second).In(zone), Finished: at.Add(time.Minute).In(time.FixedZone("", -(9*3600 + 30*60)))},
		{ID: -1, User: "a<b>&c", Name: "x\ny", State: "failed", Error: "launch: <nil>\n\"bad\" & worse", Finished: time.Unix(0, 1)},
	} {
		hand := v.AppendJSON([]byte("x"))[1:]
		want, err := json.Marshal(plainView(v))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hand, want) {
			t.Errorf("CampaignView.AppendJSON\n  %s\njson.Marshal\n  %s", hand, want)
		}
		var got CampaignView
		var fromJSON plainView
		if err := got.DecodeJSON(hand); err != nil {
			t.Fatalf("DecodeJSON(%s): %v", hand, err)
		}
		if err := json.Unmarshal(hand, &fromJSON); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, CampaignView(fromJSON)) {
			t.Errorf("DecodeJSON(%s) = %+v, encoding/json %+v", hand, got, fromJSON)
		}
	}
}

// A campaign body the server writes is what json.Encoder wrote: the JSON
// and a newline. A view json.Marshal refuses leaves the body empty, as
// json.Encoder left it.
func TestWriteJSONMatchesEncoder(t *testing.T) {
	for _, v := range []CampaignView{
		{ID: 4, User: "alice", Nodes: []string{"n1"}, Submitted: time.Date(2021, 10, 12, 11, 20, 32, 0, time.Local)},
		{Finished: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
	} {
		var want bytes.Buffer
		json.NewEncoder(&want).Encode(plainView(v))
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, &v)
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) {
			t.Errorf("writeJSON body %q, json.Encoder %q", rec.Body.Bytes(), want.Bytes())
		}
	}
}

// What DecodeJSON refuses of a submission that json.Decoder took is
// refused on purpose: a key not spelt exactly, a repeated key, a null, and
// bytes after the body.
func TestCampaignRequestDecodeStrict(t *testing.T) {
	for _, in := range []string{
		`{"User":"alice","nodes":["n1"],"minutes":1}`,
		`{"user":"alice","user":"bob","nodes":["n1"],"minutes":1}`,
		`{"user":null,"nodes":["n1"],"minutes":1}`,
		`{"user":"alice","nodes":[null],"minutes":1}`,
		`{"user":"alice","nodes":["n1"],"minutes":1} {}`,
	} {
		var fromJSON plainRequest
		dec := json.NewDecoder(strings.NewReader(in))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fromJSON); err != nil {
			t.Fatalf("json.Decoder rejects %s: %v", in, err)
		}
		var r CampaignRequest
		if err := r.DecodeJSON([]byte(in)); err == nil {
			t.Errorf("DecodeJSON accepted %s", in)
		}
	}
	var r CampaignRequest
	if err := r.DecodeJSON([]byte(`{"user":"alice","nodes":null,"minutes":1}`)); err != nil || r.Nodes != nil {
		t.Errorf("null nodes: %+v, %v", r, err)
	}
}

// An SSE message carries the event as json.Marshal writes it, behind an id:
// line unless the event is a synthetic one.
func TestSSEMatchesEncodingJSON(t *testing.T) {
	var got bytes.Buffer
	sse := sseWriter{w: &got}
	for _, ev := range []eventlog.Event{
		{Seq: 7, At: time.Date(2021, 10, 12, 11, 20, 32, 5, time.FixedZone("", 3600)), Typ: eventlog.TypeExec, Node: "vriga",
			Phase: "measurement", Run: 3, TotalRuns: 60, Message: "run 3 <ok> & done\n", Attrs: map[string]string{"bytes": "18"}},
		{Typ: eventlog.TypeDropped, Run: eventlog.NoRun, Attrs: map[string]string{"dropped": "12"}},
	} {
		got.Reset()
		synthetic := ev.Typ == eventlog.TypeDropped
		if err := sse.write(ev, !synthetic); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("id: %d\ndata: %s\n\n", ev.Seq, data)
		if synthetic {
			want = fmt.Sprintf("data: %s\n\n", data)
		}
		if got.String() != want {
			t.Errorf("SSE message %q, want %q", got.String(), want)
		}
	}
}
