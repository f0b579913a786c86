package shell

import (
	"encoding/json"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"pos/internal/wire"
)

// frame is a shell message: the hand codecs on a pointer to it.
type frame[T any] interface {
	*T
	wire.Appender
	wire.Decoder
}

// sameDecoded holds the hand codecs to encoding/json the only way that
// matters on a socket. AppendJSON's bytes and json.Marshal's decode, by
// encoding/json, to the same value; DecodeJSON reads both of them to that
// value too.
func sameDecoded[T any, P frame[T]](t *testing.T, hand []byte, v T) {
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
	for _, data := range [][]byte{hand, reflected} {
		var decoded T
		if err := P(&decoded).DecodeJSON(data); err != nil {
			t.Fatalf("DecodeJSON rejects %s: %v", data, err)
		}
		if !reflect.DeepEqual(decoded, fromJSON) {
			t.Fatalf("DecodeJSON of %s\n          -> %+v\nencoding/json -> %+v", data, decoded, fromJSON)
		}
	}
}

// FuzzShellFrames: for any Request and Response, json.Unmarshal of
// AppendJSON's bytes equals json.Unmarshal of json.Marshal's, and DecodeJSON
// of either equals both.
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
		sameDecoded[Request](t, req.AppendJSON(nil), req)
		resp := Response{OK: ok, Error: errText, Output: output, ExitCode: exit, Data: data}
		sameDecoded[Response](t, resp.AppendJSON([]byte("x"))[1:], resp)
	})
}

// plainRequest and plainResponse carry the frames' fields and tags but no
// methods, so encoding/json decodes them by reflection alone whatever
// methods the real types grow.
type (
	plainRequest  Request
	plainResponse Response
)

// FuzzDecodeShellFrame feeds the daemon's and the client's frame decoders
// arbitrary bytes. What DecodeJSON accepts, encoding/json accepts too and
// decodes to the same value; what encoding/json rejects, DecodeJSON rejects.
func FuzzDecodeShellFrame(f *testing.F) {
	for _, seed := range []string{
		`{"op":"exec","script":"pos_run moongen.log moongen $pkt_sz\n","env":{"pkt_sz":"64","rate":"1000"},"timeout_ms":30000}`,
		`{"ok":true,"output":"ok\n","exit_code":0}`,
		`{"ok":false,"error":"exit status 3","output":"partial","exit_code":3,"data":"AAEC"}`,
		`{"op":"exec","env":{"a":"1"},"env":{"b":"2"}}`,
		`{"OP":"exec"}`,
		`{"ok":true,"OK":false,"exit_code":0}`,
		`{"op":null}`, `{"ok":null,"exit_code":0}`, `null`,
		`{"op":"exec","script":"\ud800 \u2028 \udbff\udfff \ud800\u0041"}`,
		"{\"op\":\"exec\",\"script\":\"\u2028 \xff \xed\xa0\x80\"}",
		`{"op":"put","path":"/x","data":"AAEC\nAwQ="}`,
		`{"op":"put","path":"/x","data":""}`,
		`{"ok":true,"exit_code":0,"data":""}`,
		`{"op":"exec","timeout_ms":1e2}`, `{"op":"exec","timeout_ms":-0}`, `{"op":"exec","timeout_ms":9223372036854775808}`,
		`{"ok":true,"exit_code":-0}`, `{"ok":true,"exit_code":9223372036854775808}`, `{"ok":true,"exit_code":1.0}`,
		`{"op":"get","path":"/x"}x`, `{"op":"get","path":"/x"} {}`, " {\"op\":\"get\"}\r\n\t",
		`{"op":"exec","script":"` + strings.Repeat(`echo x\n`, 4097/8) + `e"}`,
		`{"op":"exec","script":"` + strings.Repeat("a", 4097) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		var plainReq plainRequest
		reqErr, jsonErr := req.DecodeJSON(data), json.Unmarshal(data, &plainReq)
		if reqErr == nil && jsonErr != nil {
			t.Fatalf("Request.DecodeJSON accepts %q, encoding/json rejects it: %v", data, jsonErr)
		}
		if reqErr == nil && !reflect.DeepEqual(req, Request(plainReq)) {
			t.Fatalf("%q: DecodeJSON %+v, encoding/json %+v", data, req, plainReq)
		}
		var resp Response
		var plainResp plainResponse
		respErr, jsonErr := resp.DecodeJSON(data), json.Unmarshal(data, &plainResp)
		if respErr == nil && jsonErr != nil {
			t.Fatalf("Response.DecodeJSON accepts %q, encoding/json rejects it: %v", data, jsonErr)
		}
		if respErr == nil && !reflect.DeepEqual(resp, Response(plainResp)) {
			t.Fatalf("%q: DecodeJSON %+v, encoding/json %+v", data, resp, plainResp)
		}
	})
}

// TestCodecsCoverEveryField fails when a json-tagged field of Request or
// Response is missing from AppendJSON or from DecodeJSON: each field is set
// alone and must survive both codecs.
func TestCodecsCoverEveryField(t *testing.T) {
	eachField[Request](t)
	eachField[Response](t)
}

func eachField[T any, P frame[T]](t *testing.T) {
	typ := reflect.TypeFor[T]()
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		if tag := field.Tag.Get("json"); tag == "" || tag == "-" {
			continue
		}
		var v T
		f := reflect.ValueOf(&v).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			f.SetBytes([]byte{1, 2})
		case reflect.Map:
			f.Set(reflect.ValueOf(map[string]string{"k": "v"}))
		default:
			t.Fatalf("%s.%s: no sample value for kind %s", typ.Name(), field.Name, f.Kind())
		}
		var fromHand T
		if err := json.Unmarshal(P(&v).AppendJSON(nil), &fromHand); err != nil || !reflect.DeepEqual(fromHand, v) {
			t.Errorf("%s.%s is missing from AppendJSON: %s", typ.Name(), field.Name, P(&v).AppendJSON(nil))
		}
		reflected, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var decoded T
		if err := P(&decoded).DecodeJSON(reflected); err != nil || !reflect.DeepEqual(decoded, v) {
			t.Errorf("%s.%s is missing from DecodeJSON: %s -> %+v, %v", typ.Name(), field.Name, reflected, decoded, err)
		}
	}
}

// encoding/json is the frames' oracle: a frame type that routed it through
// its own decoder would make every differential test above circular.
func TestFramesHaveNoUnmarshalJSON(t *testing.T) {
	for _, v := range []any{&Request{}, &Response{}} {
		if _, ok := v.(json.Unmarshaler); ok {
			t.Errorf("%T implements json.Unmarshaler", v)
		}
	}
}

// rawFrame goes on the wire as it is, valid JSON or not.
type rawFrame string

func (r rawFrame) AppendJSON(dst []byte) []byte { return append(dst, r...) }

// A frame the daemon cannot decode is answered, and the connection stays in
// step for the next one.
func TestBadFrameAnsweredConnectionUsable(t *testing.T) {
	_, c := setup(t)
	for _, bad := range []string{`{"OP":"exec"}`, `{"op":"exec","op":"get"}`, `{"op":null}`, `{"op":"exec"} x`} {
		var resp Response
		if err := c.conn.Call(rawFrame(bad), &resp); err != nil {
			t.Fatalf("%s: %v", bad, err)
		}
		if resp.OK || !strings.HasPrefix(resp.Error, "bad request: ") || resp.ExitCode != -1 {
			t.Errorf("%s: response %+v, want a bad request", bad, resp)
		}
	}
	script := strings.Repeat("echo x\n", 600) // longer than the connection's read buffer
	res, err := c.Exec(script, nil)
	if err != nil || strings.Count(res.Output, "x\n") != 600 {
		t.Fatalf("exec after bad frames: %d lines, %v", strings.Count(res.Output, "x\n"), err)
	}
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

// A response the client cannot decode fails that call as a wire unmarshal
// error and leaves the connection in step for the next one.
func TestBadResponseLeavesClientUsable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	replies := []wire.Appender{rawFrame(`{"ok":true,"exit_code":0,"exit_code":1}`), &Response{OK: true, Output: "fine"}}
	calls := 0 // only the one connection's goroutine touches it
	go wire.Serve(ln, func([]byte) wire.Appender {
		calls++
		return replies[(calls-1)%len(replies)]
	})
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("true", nil); err == nil || !strings.Contains(err.Error(), "wire: unmarshal: ") {
		t.Fatalf("duplicate member in a response: err = %v", err)
	}
	if res, err := c.Exec("true", nil); err != nil || res.Output != "fine" {
		t.Fatalf("next call: %+v, %v", res, err)
	}
}
