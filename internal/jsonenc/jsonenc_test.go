package jsonenc

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func marshal(t testing.TB, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	return data
}

var stringCorpus = []string{
	"", "plain", `quote " and \ backslash`, "ctl \x00\x01\b\f\n\r\t\x1f\x7f",
	"<script>&amp;</script>", "line\u2028sep\u2029para", "\xff\xfe invalid \xc3",
	"h\u00e9llo w\u00f6rld \u2713 \U0001d518", "trailing \xe2\x80", "\u2027\u202a",
}

func TestAppendStringMatchesMarshal(t *testing.T) {
	for _, s := range stringCorpus {
		if got, want := AppendString(nil, s), marshal(t, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func FuzzAppendString(f *testing.F) {
	for _, s := range stringCorpus {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := AppendString([]byte("x"), s), marshal(t, s); !bytes.Equal(got[1:], want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got[1:], want)
		}
	})
}

func TestAppendStringMapMatchesMarshal(t *testing.T) {
	big := map[string]string{}
	for i := 0; i < 40; i++ {
		big[string(rune('a'+i%26))+string(rune('A'+i))] = "v"
	}
	for _, m := range []map[string]string{
		nil, {}, {"a": "1"}, {"b": "2", "a": "1", "10": "x", "2": "y", "": "empty"},
		{"<k>": "\xff", "k\n": "\u2028"}, big,
	} {
		if got, want := AppendStringMap(nil, m), marshal(t, m); !bytes.Equal(got, want) {
			t.Errorf("AppendStringMap(%v) = %s, want %s", m, got, want)
		}
	}
}

func TestAppendBytesMatchesMarshal(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0}, []byte("ab"), []byte("abc"), bytes.Repeat([]byte{0xfb, 0xff}, 100)} {
		if got, want := AppendBytes(nil, b), marshal(t, b); !bytes.Equal(got, want) {
			t.Errorf("AppendBytes(%v) = %s, want %s", b, got, want)
		}
	}
}

func TestAppendTimeMatchesMarshal(t *testing.T) {
	times := []time.Time{
		{},
		time.Date(2021, 10, 12, 11, 20, 32, 0, time.UTC),
		time.Date(2021, 10, 12, 11, 20, 32, 230471000, time.FixedZone("", 2*3600)),
		time.Date(2021, 10, 12, 11, 20, 32, 1, time.FixedZone("", -(9*3600+30*60))),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Now(),
	}
	for _, ts := range times {
		got, err := AppendTime(nil, ts)
		if err != nil {
			t.Errorf("AppendTime(%v): %v", ts, err)
			continue
		}
		if want := marshal(t, ts); !bytes.Equal(got, want) {
			t.Errorf("AppendTime(%v) = %s, want %s", ts, got, want)
		}
	}
	// What MarshalJSON refuses is refused here too.
	for _, ts := range []time.Time{
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2021, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2021, 1, 1, 0, 0, 0, 0, time.FixedZone("", -100*3600)),
	} {
		_, jsonErr := json.Marshal(ts)
		if _, err := AppendTime(nil, ts); (err == nil) != (jsonErr == nil) {
			t.Errorf("AppendTime(%v) err = %v, json.Marshal err = %v", ts, err, jsonErr)
		}
	}
}

var floatCorpus = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 1.5e300, 5e-324,
	math.MaxFloat64, 0.034999847, 123456789.125, 1e-10, -2.5e-9,
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range floatCorpus {
		got, err := AppendFloat(nil, f)
		if err != nil {
			t.Errorf("AppendFloat(%v): %v", f, err)
			continue
		}
		if want := marshal(t, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("AppendFloat(%v) accepted", f)
		}
	}
}

func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatCorpus {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		got, err := AppendFloat(nil, v)
		want, jsonErr := json.Marshal(v)
		if (err == nil) != (jsonErr == nil) {
			t.Fatalf("AppendFloat(%v) err = %v, json.Marshal err = %v", v, err, jsonErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", v, got, want)
		}
	})
}
