// Package jsonenc holds append-style encoders for the handful of JSON
// values the per-run hot paths emit — strings, timestamps, floats, byte
// slices, string arrays and maps. Each produces exactly the bytes
// encoding/json.Marshal produces for the same value (HTML escaping on, as
// Marshal has it), without reflection and without allocating beyond dst's
// growth.
//
// It is also a reader: Decoder pulls the members of one flat JSON object —
// strings, base64 bytes, integers, booleans, RFC 3339 times, string arrays
// and string maps — and decodes them to the values encoding/json.Unmarshal
// gives, accepting a strict subset of what Unmarshal accepts. encoding/json
// stays the oracle both ways: the package's tests, and the tests of every
// caller, compare against it.
package jsonenc

import (
	"encoding/base64"
	"errors"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"
)

const hex = "0123456789abcdef"

// AppendString appends s as a JSON string: quotes, backslashes, control
// bytes, '<', '>', '&', U+2028 and U+2029 escaped, invalid UTF-8 replaced by
// U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			start = i + size
		case c == 0x2028 || c == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendOmitEmpty appends a string member tagged omitempty: key, which
// carries the member's comma, quotes and colon (`,"name":`), then s as
// AppendString writes it, or nothing at all for an empty s.
func AppendOmitEmpty(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return AppendString(append(dst, key...), s)
}

// AppendIntOmitEmpty appends an integer member tagged omitempty: key as
// AppendOmitEmpty takes it, then n, or nothing at all for a zero n.
func AppendIntOmitEmpty(dst []byte, key string, n int64) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// AppendStringMap appends m as a JSON object with its keys sorted, or null
// for a nil map.
func AppendStringMap(dst []byte, m map[string]string) []byte {
	if m == nil {
		return append(dst, "null"...)
	}
	var stack [16]string
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		dst = AppendString(dst, m[k])
	}
	return append(dst, '}')
}

// AppendStrings appends ss as a JSON array of strings, or null for a nil
// slice.
func AppendStrings(dst []byte, ss []string) []byte {
	if ss == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// AppendBytes appends b as encoding/json encodes a []byte: a base64 string,
// or null for a nil slice.
func AppendBytes(dst []byte, b []byte) []byte {
	if b == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '"')
	dst = base64.StdEncoding.AppendEncode(dst, b)
	return append(dst, '"')
}

// AppendTime appends t as time.Time.MarshalJSON writes it: quoted RFC 3339
// with nanoseconds. Like MarshalJSON it refuses what RFC 3339 cannot carry —
// a year outside [0,9999] or a zone offset of 24 hours or more.
func AppendTime(dst []byte, t time.Time) ([]byte, error) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	if dst[n0+len("9999")] != '-' {
		return dst, errors.New("jsonenc: year outside of range [0,9999]")
	}
	if dst[len(dst)-1] != 'Z' {
		zone := dst[len(dst)-len("Z07:00"):]
		if c := zone[0]; ('0' <= c && c <= '9') || 10*(zone[1]-'0')+(zone[2]-'0') >= 24 {
			return dst, errors.New("jsonenc: timezone hour outside of range [0,23]")
		}
	}
	return append(dst, '"'), nil
}

// AppendFloat appends f in encoding/json's float64 format. NaN and the
// infinities have no JSON form and are an error there as here.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, errors.New("jsonenc: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as encoding/json cleans it up.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && (dst[n-3] == '-' || dst[n-3] == '+') && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
