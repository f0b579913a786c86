package jsonenc

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// record has one field of every kind Decoder reads. It has no methods, so
// encoding/json decodes it by reflection alone.
type record struct {
	S string            `json:"s,omitempty"`
	B []byte            `json:"b,omitempty"`
	I int64             `json:"i,omitempty"`
	T bool              `json:"t,omitempty"`
	M map[string]string `json:"m,omitempty"`
}

func decodeRecord(data []byte) (record, error) {
	var r record
	d := NewDecoder(data)
	for d.Next() {
		switch string(d.Key()) {
		case "s":
			r.S = d.ReadString()
		case "b":
			r.B = d.ReadBytes()
		case "i":
			r.I = d.ReadInt()
		case "t":
			r.T = d.ReadBool()
		case "m":
			r.M = d.ReadStringMap()
		default:
			d.Unknown()
		}
	}
	return r, d.Err()
}

// checkSubset holds Decoder to encoding/json: what it accepts, Unmarshal
// accepts too and decodes to the same value.
func checkSubset(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	got, err := decodeRecord(data)
	var want record
	jsonErr := json.Unmarshal(data, &want)
	if err != nil {
		return false
	}
	if jsonErr != nil {
		t.Fatalf("Decoder accepted %q, encoding/json rejects it: %v", data, jsonErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: Decoder read %#v, encoding/json %#v", data, got, want)
	}
	return true
}

var decodeCorpus = []string{
	`{}`, ` {"s":"x"} `, "\t{\n\"s\" : \"x\" ,\r\"i\":3}\n",
	`{"s":"a\"b\\c\/d\b\f\n\r\t"}`, `{"s":"é 𝄞"}`, `{"s":"􏿿"}`,
	`{"s":"\ud83d\ude00 \uD834\uDD1E"}`, `{"s":"\ud800"}`, `{"s":"\ud800x"}`, `{"s":"\udc00\ud800"}`, `{"s":"\ud800A"}`, `{"s":"\ud800𐀀"}`,
	"{\"s\":\"\xff\xfe \xc3 \xe2\x80 \xed\xa0\x80\"}", `{"s":"\u0000"}`, "{\"s\":\"\x7f\"}",
	`{"b":""}`, `{"b":"AAEC"}`, `{"b":"AA\nEC"}`, `{"b":"AA\r\nEC"}`, `{"b":"AAE"}`, `{"b":"A==="}`, `{"b":"AAEC"}`,
	`{"i":0}`, `{"i":-0}`, `{"i":9223372036854775807}`, `{"i":-9223372036854775808}`,
	`{"i":9223372036854775808}`, `{"i":-9223372036854775809}`, `{"i":99999999999999999999}`,
	`{"i":1e2}`, `{"i":1.0}`, `{"i":01}`, `{"i":-}`, `{"i":+1}`, `{"i":"1"}`,
	`{"t":true}`, `{"t":false}`, `{"t":tru}`, `{"t":truex}`, `{"t":1}`,
	`{"m":{}}`, `{"m":{"a":"1","b":"2"}}`, `{"m":{"a":"1","a":"2"}}`, `{"m":{"é":"\ud800"}}`, `{"m":{"a":1}}`, `{"m":{"a":null}}`,
	`{"m":{"a":"1",}}`, `{"m":{"a"}}`,
	`{"s":"x","s":"y"}`, `{"S":"x"}`, `{"\u0073":"x"}`, `{"x":1}`, `{"s":null}`, `null`, `[]`, `"s"`, ``, `{`, `{"s":"x"`,
	`{"s":"x"}x`, `{"s":"x"}{}`, `{"s":"x",}`, `{,"s":"x"}`, `{"s" "x"}`, `{"s":"unterminated}`, "{\"s\":\"tab\there\"}",
	`{"s":"\x"}`, `{"s":"\u12"}`, `{"s":"\u12G4"}`, `{"s":"end\`,
}

func TestDecoderIsSubsetOfUnmarshal(t *testing.T) {
	accepted := 0
	for _, in := range decodeCorpus {
		if checkSubset(t, []byte(in)) {
			accepted++
		}
	}
	if accepted < 25 {
		t.Errorf("Decoder accepted %d of %d inputs: the corpus no longer reaches the value paths", accepted, len(decodeCorpus))
	}
}

// What Decoder refuses and encoding/json takes is refused on purpose.
func TestDecoderStricterThanUnmarshal(t *testing.T) {
	for _, in := range []string{
		`{"s":"x","s":"y"}`, `{"S":"x"}`, `{"\u0073":"x"}`, `{"x":1}`, `{"s":null}`, `{"m":null}`,
		`{"m":{"a":null}}`, `null`,
	} {
		var r record
		if err := json.Unmarshal([]byte(in), &r); err != nil {
			t.Fatalf("encoding/json rejects %s: %v", in, err)
		}
		if _, err := decodeRecord([]byte(in)); err == nil {
			t.Errorf("Decoder accepted %s", in)
		}
	}
}

func TestDecoderReadsWhatMarshalWrites(t *testing.T) {
	for _, s := range stringCorpus {
		for _, r := range []record{
			{S: s},
			{B: []byte(s), I: -42, T: true, M: map[string]string{s: s, "": "e", "k": ""}},
			{S: s, B: []byte{}, M: map[string]string{}},
		} {
			data := marshal(t, r)
			if !checkSubset(t, data) {
				t.Errorf("Decoder rejected what encoding/json wrote: %s", data)
			}
		}
	}
}

// An escaped string is unquoted on the stack and costs one allocation, the
// string itself.
func TestDecoderStringAllocations(t *testing.T) {
	data := []byte(`{"s":"pos_run moongen.log moongen $pkt_sz\n\"quoted\" é"}`)
	var r record
	allocs := testing.AllocsPerRun(100, func() {
		d := NewDecoder(data)
		for d.Next() {
			r.S = d.ReadString()
		}
		if d.Err() != nil {
			t.Fatal(d.Err())
		}
	})
	if allocs != 1 {
		t.Errorf("decoding one escaped string: %v allocations, want 1", allocs)
	}
}

func FuzzDecoder(f *testing.F) {
	for _, in := range decodeCorpus {
		f.Add([]byte(in))
	}
	f.Add([]byte(`{"s":"` + strings.Repeat(`\n`, 300) + `"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSubset(t, data)
	})
}
