package jsonenc

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// record has one field of every kind Decoder reads. It has no methods, so
// encoding/json decodes it by reflection alone.
type record struct {
	S string            `json:"s,omitempty"`
	B []byte            `json:"b,omitempty"`
	I int64             `json:"i,omitempty"`
	U uint64            `json:"u,omitempty"`
	T bool              `json:"t,omitempty"`
	L []string          `json:"l,omitempty"`
	M map[string]string `json:"m,omitempty"`
}

// decodeRecord decodes data into a record, its strings interned in strs
// unless that is nil.
func decodeRecord(data []byte, strs map[string]string) (record, error) {
	var r record
	d := NewDecoder(data)
	d.Intern(strs)
	for d.Next() {
		switch string(d.Key()) {
		case "s":
			r.S = d.ReadString()
		case "b":
			r.B = d.ReadBytes()
		case "i":
			r.I = d.ReadInt()
		case "u":
			r.U = d.ReadUint()
		case "t":
			r.T = d.ReadBool()
		case "l":
			r.L = d.ReadStrings()
		case "m":
			r.M = d.ReadStringMap()
		default:
			d.Unknown()
		}
	}
	return r, d.Err()
}

// checkSubset holds Decoder to encoding/json: what it accepts, Unmarshal
// accepts too and decodes to the same value. Interning changes neither.
func checkSubset(t *testing.T, data []byte) (accepted bool) {
	t.Helper()
	got, err := decodeRecord(data, nil)
	interned, internErr := decodeRecord(data, map[string]string{"x": "x"})
	var want record
	jsonErr := json.Unmarshal(data, &want)
	if (err == nil) != (internErr == nil) || !reflect.DeepEqual(got, interned) {
		t.Fatalf("%q: Decoder read %#v (%v), interning %#v (%v)", data, got, err, interned, internErr)
	}
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
	`{"u":0}`, `{"u":18446744073709551615}`, `{"u":18446744073709551616}`, `{"u":99999999999999999999}`,
	`{"u":-0}`, `{"u":-1}`, `{"u":1e2}`, `{"u":1.0}`, `{"u":01}`, `{"u":+1}`, `{"u":"1"}`,
	`{"t":true}`, `{"t":false}`, `{"t":tru}`, `{"t":truex}`, `{"t":1}`,
	`{"m":{}}`, `{"m":{"a":"1","b":"2"}}`, `{"m":{"a":"1","a":"2"}}`, `{"m":{"é":"\ud800"}}`, `{"m":{"a":1}}`, `{"m":{"a":null}}`,
	`{"m":{"a":"1",}}`, `{"m":{"a"}}`,
	`{"l":[]}`, `{"l":["n1","n2"]}`, ` {"l" : [ "a" ,"\u00e9\ud800", "" ] } `, `{"l":["a"],"l":["b"]}`, `{"l":[1]}`, `{"l":[null]}`,
	`{"l":["a",]}`, `{"l":["a" "b"]}`, `{"l":[}`, `{"l":["a"}`, `{"l":{}}`, `{"l":"a"}`, `{"l":null}`,
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
		`{"m":{"a":null}}`, `{"l":null}`, `{"l":[null]}`, `null`,
	} {
		var r record
		if err := json.Unmarshal([]byte(in), &r); err != nil {
			t.Fatalf("encoding/json rejects %s: %v", in, err)
		}
		if _, err := decodeRecord([]byte(in), nil); err == nil {
			t.Errorf("Decoder accepted %s", in)
		}
	}
}

func TestDecoderReadsWhatMarshalWrites(t *testing.T) {
	for _, s := range stringCorpus {
		for _, r := range []record{
			{S: s},
			{B: []byte(s), I: -42, U: 1<<64 - 1, T: true, L: []string{s, "", s}, M: map[string]string{s: s, "": "e", "k": ""}},
			{S: s, B: []byte{}, L: []string{}, M: map[string]string{}},
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

// checkTime holds ReadTime to time.Time.UnmarshalJSON on the same member
// value: the same time, and one fails where the other does. A value that is
// not one JSON string ReadTime refuses; null, which UnmarshalJSON takes as
// no time, among them, as every Read method refuses a null.
func checkTime(t *testing.T, value []byte) (accepted bool) {
	t.Helper()
	var got time.Time
	d := NewDecoder(append(append([]byte(`{"tm":`), value...), '}'))
	for d.Next() {
		got = d.ReadTime()
	}
	err := d.Err()
	value = bytes.Trim(value, " \t\r\n")
	if !json.Valid(value) || value[0] != '"' {
		if err == nil {
			t.Fatalf("ReadTime accepted %q, which is not a JSON string", value)
		}
		return false
	}
	var want time.Time
	wantErr := want.UnmarshalJSON(value)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: ReadTime err = %v, time.Time.UnmarshalJSON err = %v", value, err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ReadTime read %v, UnmarshalJSON %v", value, got, want)
	}
	return err == nil
}

var timeCorpus = []string{
	`"2021-10-12T11:20:32Z"`, `"2021-10-12T11:20:32.230471Z"`, `"2021-10-12T11:20:32.230471000Z"`,
	`"2021-10-12T11:20:32.123456789123Z"`, `"2021-10-12T11:20:32.Z"`, ` "2021-10-12T11:20:32Z"` + "\n",
	`"2021-10-12T11:20:32+02:00"`, `"2021-10-12T11:20:32.5-09:30"`, `"2021-10-12T11:20:32-00:00"`, `"2021-10-12T11:20:32+14:00"`,
	`"2021-10-12T11:20:32+24:00"`, `"2021-10-12T11:20:32+0200"`, `"2021-10-12T11:20:32+02:60"`,
	`"0999-01-01T00:00:00Z"`, `"0001-01-01T00:00:00Z"`, `"0000-01-01T00:00:00Z"`, `"9999-12-31T23:59:59.999999999Z"`,
	`"10000-01-01T00:00:00Z"`, `"-001-01-01T00:00:00Z"`, `"999-01-01T00:00:00Z"`,
	`"2021-10-12T11:20:3\u0032Z"`, `"\u0032021-10-12T11:20:32Z"`, `"2021-10-12T11:20:32\u005a"`,
	`"2021-10-12T11:20:32z"`, `"2021-10-12t11:20:32Z"`, `"2021-10-12T11:20:32"`, `"2021-10-12 11:20:32Z"`,
	`"2021-02-30T00:00:00Z"`, `"2021-10-12T25:00:00Z"`, `"2021-10-12T11:20:60Z"`, `"2021-10-12T11:20:32Z "`,
	`null`, `1`, `""`, `"2021-10-12T11:20:32Z`, `{}`, `"2021-10-12T11:20:32Z",`, "\"\xff\"",
}

func TestReadTimeMatchesUnmarshalJSON(t *testing.T) {
	accepted := 0
	for _, in := range timeCorpus {
		if checkTime(t, []byte(in)) {
			accepted++
		}
	}
	if accepted < 10 {
		t.Errorf("ReadTime accepted %d of %d values: the corpus no longer reaches the parse", accepted, len(timeCorpus))
	}
}

// Null takes a null member and nothing else; the members after it read on.
func TestDecoderNull(t *testing.T) {
	for _, c := range []struct {
		in       string
		null, ok bool
	}{
		{`{"m":null,"s":"x"}`, true, true},
		{`{"m":{},"s":"x"}`, false, true},
		{`{"m":nul,"s":"x"}`, false, false},
		{`{"m":nullx}`, true, false},
	} {
		d := NewDecoder([]byte(c.in))
		d.Next()
		null := d.Null()
		if !null {
			d.ReadStringMap()
		}
		for d.Next() {
			d.ReadString()
		}
		if null != c.null || (d.Err() == nil) != c.ok {
			t.Errorf("%s: Null() = %v, Err() = %v; want %v, ok %v", c.in, null, d.Err(), c.null, c.ok)
		}
	}
}

// Interned strings are shared: a name read twice is made once.
func TestDecoderInternAllocations(t *testing.T) {
	data := []byte(`{"s":"exec:vtartu","m":{"phase":"measurement","exec:vtartu":"phase"}}`)
	strs := make(map[string]string)
	decodeRecord(data, strs)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := decodeRecord(data, strs); err != nil {
			t.Fatal(err)
		}
	})
	// The map and its group: every string comes from the table.
	if allocs != 2 {
		t.Errorf("decoding interned strings: %v allocations, want 2", allocs)
	}
}

// An array of interned strings costs its slice alone.
func TestReadStringsAllocations(t *testing.T) {
	data := []byte(`{"l":["n1","n2","n3","n4"]}`)
	strs := make(map[string]string)
	decodeRecord(data, strs)
	allocs := testing.AllocsPerRun(100, func() {
		if r, err := decodeRecord(data, strs); err != nil || len(r.L) != 4 {
			t.Fatal(r, err)
		}
	})
	if allocs != 1 {
		t.Errorf("decoding four interned strings: %v allocations, want 1", allocs)
	}
}

func FuzzDecoder(f *testing.F) {
	for _, in := range decodeCorpus {
		f.Add([]byte(in))
	}
	for _, in := range timeCorpus {
		f.Add([]byte(in))
	}
	f.Add([]byte(`{"s":"` + strings.Repeat(`\n`, 300) + `"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if checkSubset(t, data) {
			// What ReadStrings read, AppendStrings writes as Marshal does.
			r, _ := decodeRecord(data, nil)
			if got, want := AppendStrings(nil, r.L), marshal(t, r.L); !bytes.Equal(got, want) {
				t.Fatalf("AppendStrings(%q) = %s, want %s", r.L, got, want)
			}
		}
		checkTime(t, data)
	})
}
