package shell

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

// sameDecoded holds a hand encoder to encoding/json the only way that
// matters on a socket: both encodings decode to the same value.
func sameDecoded[T any](t *testing.T, hand []byte, v T) {
	t.Helper()
	reflected, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var fromHand, fromJSON T
	if err := json.Unmarshal(hand, &fromHand); err != nil {
		t.Fatalf("AppendJSON wrote what encoding/json cannot read: %v\n%s", err, hand)
	}
	if err := json.Unmarshal(reflected, &fromJSON); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromHand, fromJSON) {
		t.Fatalf("decoded values differ:\nAppendJSON   %s\n          -> %+v\njson.Marshal %s\n          -> %+v", hand, fromHand, reflected, fromJSON)
	}
}

// FuzzShellFrames: for any Request and Response, json.Unmarshal of
// AppendJSON's bytes equals json.Unmarshal of json.Marshal's.
func FuzzShellFrames(f *testing.F) {
	// op, script, one env pair (envN = how many pairs: 0 none, 1 empty map, 2+ pairs),
	// timeout, path, data (dataNil: nil instead of empty), key, value,
	// ok, error, output, exit code.
	f.Add("exec", "pos_run moongen.log moongen $pkt_sz\n", "pkt_sz", "64", 2, int64(30000), "", []byte(nil), true, "", "", true, "", "ok\n", 0)
	f.Add("exec", "true", "", "", 1, int64(0), "", []byte{}, false, "", "", false, "exit status 3", "partial", -1)
	f.Add("exec", "echo \xff\xfe\xc3", "K\xff", "\xe2\x80", 3, int64(-1), "", []byte(nil), true, "", "", false, "bad \xff utf8", "\xc3\x28", -127)
	f.Add("put", "", "", "", 0, int64(0), "/etc/\"quoted\"\\back\x00\x01\x1f\x7f", []byte("\x00\xff binary \n"), false, "", "", true, "", "", 0)
	f.Add("env", "", "", "", 0, int64(0), "", []byte(nil), true, "line\u2028sep\u2029", "<script>&amp;</script>", true, "", "\b\f\n\r\t", 0)
	f.Add("get", "", "", "", 0, int64(1), "p", []byte{}, true, "", "", true, "", "", 1<<31-1)
	f.Fuzz(func(t *testing.T, op, script, envKey, envVal string, envN int, timeout int64, path string,
		data []byte, dataNil bool, key, value string, ok bool, errText, output string, exit int) {
		if dataNil {
			data = nil
		} else if data == nil {
			data = []byte{}
		}
		req := Request{Op: op, Script: script, TimeoutMS: timeout, Path: path, Data: data, Key: key, Value: value}
		if envN > 0 {
			req.Env = map[string]string{}
			for i := 1; i < envN%6; i++ {
				req.Env[envKey+strings.Repeat("k", i-1)] = envVal
			}
		}
		sameDecoded(t, req.AppendJSON(nil), req)
		resp := Response{OK: ok, Error: errText, Output: output, ExitCode: exit, Data: data}
		sameDecoded(t, resp.AppendJSON([]byte("x"))[1:], resp)
	})
}

// A timeout the wire cannot carry exactly is rounded away from zero: zero
// means "no limit", and a nearly-dead context must not be granted one.
func TestExecTimeoutRoundsAwayFromZero(t *testing.T) {
	_, c := setup(t)
	for _, timeout := range []time.Duration{500 * time.Microsecond, time.Nanosecond, -time.Nanosecond, -3 * time.Second} {
		start := time.Now()
		_, err := c.ExecTimeout("sleep_ms 200", nil, timeout)
		if err == nil || !strings.Contains(err.Error(), "deadline exceeded") {
			t.Errorf("timeout %v: err = %v, want a deadline error", timeout, err)
		}
		if took := time.Since(start); took > 100*time.Millisecond {
			t.Errorf("timeout %v: exec ran %v — the limit was lifted", timeout, took)
		}
	}
	// Zero is still "no limit".
	if res, err := c.ExecTimeout("sleep_ms 5\necho done", nil, 0); err != nil || !strings.Contains(res.Output, "done") {
		t.Errorf("no timeout: %+v, %v", res, err)
	}
}
