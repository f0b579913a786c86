package mgmt

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// plainRequest and plainResponse carry the frames' fields and tags but no
// methods, so encoding/json encodes and decodes them by reflection alone
// whatever methods the real types grow.
type (
	plainRequest  Request
	plainResponse Response
)

// FuzzMgmtFrames holds the BMC's frame codecs to encoding/json. Whatever the
// bytes, a frame DecodeJSON accepts is one encoding/json accepts too,
// decoded to the same value. And every frame encoding/json reads, AppendJSON
// writes byte for byte as json.Marshal writes it.
func FuzzMgmtFrames(f *testing.F) {
	for _, seed := range []string{
		`{"op":"set_boot","image":"debian-buster","params":{"nr_hugepages":"512","isolcpus":"2-3"}}`,
		`{"op":"status"}`, `{"op":"power_on","params":{}}`, `{"op":"reset","params":null}`,
		`{"ok":true,"state":"running","boots":2}`, `{"ok":false,"error":"no image \"x\" <&>","state":"off"}`,
		`{"ok":true,"boots":-0}`, `{"ok":true,"boots":9223372036854775808}`, `{"ok":true,"boots":1e1}`,
		`{"op":"set_boot","params":{"a":"1","a":"2"}}`, `{"op":"set_boot","params":{"a":null}}`,
		`{"op":"\ud800 ","image":"` + "\xff" + `"}`,
		`{"OP":"status"}`, `{"op":"status","op":"reset"}`, `{"op":"status","extra":1}`, `{"ok":null}`,
		`{"op":"status"} x`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		var plainReq plainRequest
		reqErr, jsonErr := req.DecodeJSON(data), json.Unmarshal(data, &plainReq)
		if reqErr == nil && (jsonErr != nil || !reflect.DeepEqual(req, Request(plainReq))) {
			t.Fatalf("%q: Request.DecodeJSON %+v, encoding/json %+v (%v)", data, req, plainReq, jsonErr)
		}
		if jsonErr == nil {
			r := Request(plainReq)
			sameBytes(t, r.AppendJSON([]byte("x"))[1:], plainReq)
		}
		var resp Response
		var plainResp plainResponse
		respErr, jsonErr := resp.DecodeJSON(data), json.Unmarshal(data, &plainResp)
		if respErr == nil && (jsonErr != nil || !reflect.DeepEqual(resp, Response(plainResp))) {
			t.Fatalf("%q: Response.DecodeJSON %+v, encoding/json %+v (%v)", data, resp, plainResp, jsonErr)
		}
		if jsonErr == nil {
			r := Response(plainResp)
			sameBytes(t, r.AppendJSON([]byte("x"))[1:], plainResp)
		}
	})
}

func sameBytes(t *testing.T, hand []byte, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hand, want) {
		t.Fatalf("AppendJSON  %s\njson.Marshal %s", hand, want)
	}
}

// mgmtRoundTripAllocBudget is 15 % above the 25 objects one set_boot and
// one status round trip allocated together when the budget was set (go1.24,
// GOMAXPROCS 1 and 2, on top of 5561098), both goroutines, client and BMC,
// over loopback TCP. With every frame through encoding/json, as at 5561098,
// the same two calls cost 56.
const mgmtRoundTripAllocBudget = 28

// raceEnabled is set under the race detector, which drops a quarter of what
// goes back into a sync.Pool, wire's frame buffers among it.
var raceEnabled bool

func TestMgmtRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled frame buffers at random")
	}
	_, c := setup(t)
	params := map[string]string{"nr_hugepages": "512", "isolcpus": "2-3"}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.SetBoot("debian-buster", params); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Status(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("set_boot and status round trips: %.0f allocations (budget %d)", allocs, mgmtRoundTripAllocBudget)
	if allocs > mgmtRoundTripAllocBudget {
		t.Errorf("set_boot and status round trips allocate %.0f objects, budget %d", allocs, mgmtRoundTripAllocBudget)
	}
}
