package jsonenc

import (
	"encoding/base64"
	"errors"
	"math"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// maxMembers bounds the members one Decoder reads: it is the size of the
// table that catches a repeated key. The objects it reads have at most
// fourteen (a campaign view).
const maxMembers = 16

// Decoder reads one flat JSON object member by member, pull style:
//
//	d := jsonenc.NewDecoder(data)
//	for d.Next() {
//		switch string(d.Key()) {
//		case "name":
//			v.Name = d.ReadString()
//		default:
//			d.Unknown()
//		}
//	}
//	return d.Err()
//
// After Next reports a member, exactly one Read method or Unknown must take
// it. What the Decoder accepts is a strict subset of what
// encoding/json.Unmarshal accepts, and decodes to the same values: a key not
// spelt exactly as the caller knows it, a key seen twice and a null member
// the caller does not take with Null are errors here, where encoding/json
// folds case, ignores unknown keys, lets a repeat overwrite or merge, and
// skips a null.
type Decoder struct {
	data  []byte
	pos   int
	err   error
	state uint8
	key   []byte
	seen  [maxMembers][]byte
	n     int
	strs  map[string]string
}

const (
	decodeStart = iota
	decodeMembers
	decodeDone
)

// NewDecoder returns a Decoder over data, which must hold one JSON object
// and nothing but white space around it.
func NewDecoder(data []byte) Decoder {
	return Decoder{data: data}
}

// Err returns the first error the Decoder met, or nil once the whole object
// has been read.
func (d *Decoder) Err() error {
	if d.err == nil && d.state != decodeDone {
		return errors.New("jsonenc: object not read to its end")
	}
	return d.err
}

// Key returns the current member's key, as it stands between its quotes. A
// key written with an escape matches no field name, and so is unknown.
func (d *Decoder) Key() []byte { return d.key }

// Next advances to the next member and reports whether there is one. It
// returns false at the end of the object and on the first error.
func (d *Decoder) Next() bool {
	if d.err != nil || d.state == decodeDone {
		return false
	}
	d.skipSpace()
	if d.state == decodeStart {
		if !d.consume('{') {
			return false
		}
		d.state = decodeMembers
		d.skipSpace()
		if d.peek() == '}' {
			return d.end()
		}
	} else {
		if d.peek() == '}' {
			return d.end()
		}
		if !d.consume(',') {
			return false
		}
		d.skipSpace()
	}
	key, _, ok := d.rawString()
	if !ok {
		return false
	}
	if d.n == maxMembers {
		return d.fail("too many members")
	}
	for _, k := range d.seen[:d.n] {
		if string(k) == string(key) {
			return d.fail("duplicate member " + strconv.Quote(string(key)))
		}
	}
	d.seen[d.n] = key
	d.n++
	d.key = key
	d.skipSpace()
	if !d.consume(':') {
		return false
	}
	d.skipSpace()
	return true
}

// Intern makes the strings this Decoder reads, map keys and values included,
// come from strs: a string equal to one already there is that string, and
// one that is not is added. A caller that reads many records with the same
// names and labels shares one table among their Decoders, and pays for each
// distinct string once.
func (d *Decoder) Intern(strs map[string]string) { d.strs = strs }

// Unknown rejects the current member: its key names no field.
func (d *Decoder) Unknown() {
	d.fail("unknown member " + strconv.Quote(string(d.key)))
}

// ReadString reads the current member as a string, unquoted as
// encoding/json unquotes it: escapes resolved, a lone or mismatched
// surrogate and every byte of invalid UTF-8 replaced by U+FFFD. An escaped
// string is unquoted on the stack, so a string costs one allocation; past
// the stack's size, into one buffer as long as the quoted form, which
// escapes only shorten, so it costs two.
func (d *Decoder) ReadString() string {
	raw, plain, ok := d.stringValue()
	if !ok || plain {
		return d.str(raw)
	}
	var stack [256]byte
	buf := stack[:0]
	if len(raw) > len(stack) {
		buf = make([]byte, 0, len(raw))
	}
	return d.str(unquote(buf, raw))
}

// str returns b as a string, from the intern table when there is one.
func (d *Decoder) str(b []byte) string {
	if d.strs == nil {
		return string(b)
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// ReadBytes reads the current member as encoding/json reads a []byte: a
// base64 string, decoded into a new slice that is empty, not nil, for "".
func (d *Decoder) ReadBytes() []byte {
	raw, plain, ok := d.stringValue()
	if !ok {
		return nil
	}
	if !plain {
		var stack [256]byte
		raw = unquote(stack[:0], raw)
	}
	b := make([]byte, base64.StdEncoding.DecodedLen(len(raw)))
	n, err := base64.StdEncoding.Decode(b, raw)
	if err != nil {
		d.fail(err.Error())
		return nil
	}
	return b[:n]
}

// ReadInt reads the current member as an integer that fits an int64. A
// fraction or an exponent is an error, as it is for encoding/json into an
// integer field.
func (d *Decoder) ReadInt() int64 {
	if !d.notNull() {
		return 0
	}
	if d.peek() == '-' {
		d.pos++
		return -int64(d.digits(1<<63, "int64"))
	}
	return int64(d.digits(1<<63-1, "int64"))
}

// ReadUint reads the current member as an integer that fits a uint64, under
// ReadInt's rules; a minus sign, even on zero, is an error, as it is for
// encoding/json into an unsigned field.
func (d *Decoder) ReadUint() uint64 {
	if !d.notNull() {
		return 0
	}
	return d.digits(math.MaxUint64, "uint64")
}

// digits reads the unsigned decimal integer at the cursor, which must not
// exceed limit.
func (d *Decoder) digits(limit uint64, typ string) uint64 {
	i := d.pos
	var n uint64
	for ; i < len(d.data) && '0' <= d.data[i] && d.data[i] <= '9'; i++ {
		digit := uint64(d.data[i] - '0')
		if n > (limit-digit)/10 {
			d.fail("integer overflows " + typ)
			return 0
		}
		n = n*10 + digit
	}
	switch {
	case i == d.pos:
		d.fail("expected an integer")
		return 0
	case d.data[d.pos] == '0' && i-d.pos > 1:
		d.fail("integer with a leading zero")
		return 0
	case i < len(d.data) && (d.data[i] == '.' || d.data[i] == 'e' || d.data[i] == 'E'):
		d.fail("number is not an integer")
		return 0
	}
	d.pos = i
	return n
}

// ReadBool reads the current member as true or false.
func (d *Decoder) ReadBool() bool {
	if !d.notNull() {
		return false
	}
	rest := d.data[d.pos:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.pos += 4
		return true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.pos += 5
		return false
	}
	d.fail("expected true or false")
	return false
}

// ReadTime reads the current member as time.Time.UnmarshalJSON reads it:
// the bytes between the quotes parsed as RFC 3339 by UnmarshalText, so a
// time written with an escape is an error here as it is there.
func (d *Decoder) ReadTime() time.Time {
	raw, _, ok := d.stringValue()
	if !ok {
		return time.Time{}
	}
	var t time.Time
	if err := t.UnmarshalText(raw); err != nil {
		d.fail(err.Error())
		return time.Time{}
	}
	return t
}

// Null takes the current member if it is null and reports whether it was.
// encoding/json leaves a field as it was for null. A repeated key is an
// error here, so that is the field's zero value, and a caller may read null
// as zero where zero is what the field's encoder writes null for: a nil map
// or slice. Every other null is an error of the Read method that meets it.
func (d *Decoder) Null() bool {
	if d.err == nil && len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

// ReadStrings reads the current member as an array of strings. "[]" is an
// empty slice, not nil. The elements are gathered on the stack, so an array
// of up to sixteen costs one allocation beside its strings.
func (d *Decoder) ReadStrings() []string {
	if !d.notNull() || !d.consume('[') {
		return nil
	}
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		return []string{}
	}
	var stack [16]string
	ss := stack[:0]
	for {
		d.skipSpace()
		s := d.ReadString()
		if d.err != nil {
			return nil
		}
		ss = append(ss, s)
		d.skipSpace()
		if d.peek() == ']' {
			d.pos++
			return append([]string(nil), ss...)
		}
		if !d.consume(',') {
			return nil
		}
	}
}

// ReadStringMap reads the current member as an object of strings. "{}" is
// an empty map, not nil; a key given twice keeps its last value, as
// encoding/json keeps it.
func (d *Decoder) ReadStringMap() map[string]string {
	if !d.notNull() || !d.consume('{') {
		return nil
	}
	m := make(map[string]string)
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return m
	}
	for {
		d.skipSpace()
		k := d.ReadString()
		d.skipSpace()
		if d.err != nil || !d.consume(':') {
			return nil
		}
		d.skipSpace()
		v := d.ReadString()
		if d.err != nil {
			return nil
		}
		m[k] = v
		d.skipSpace()
		if d.peek() == '}' {
			d.pos++
			return m
		}
		if !d.consume(',') {
			return nil
		}
	}
}

func (d *Decoder) fail(msg string) bool {
	if d.err == nil {
		d.err = errors.New("jsonenc: " + msg + " at offset " + strconv.Itoa(d.pos))
	}
	return false
}

func (d *Decoder) end() bool {
	d.pos++
	d.skipSpace()
	if d.pos != len(d.data) {
		return d.fail("data after the object")
	}
	d.state = decodeDone
	return false
}

func (d *Decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *Decoder) consume(c byte) bool {
	if d.peek() != c {
		if d.pos == len(d.data) {
			return d.fail("unexpected end of input")
		}
		return d.fail("expected " + strconv.QuoteRune(rune(c)) + ", found " + strconv.QuoteRune(rune(d.data[d.pos])))
	}
	d.pos++
	return true
}

func (d *Decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// notNull fails on a null member: encoding/json would skip it and leave the
// field as it was, which a decoder that reads each member once cannot tell
// from a member that is absent.
func (d *Decoder) notNull() bool {
	if d.err != nil {
		return false
	}
	if d.peek() == 'n' {
		return d.fail("null member " + strconv.Quote(string(d.key)))
	}
	return true
}

func (d *Decoder) stringValue() (raw []byte, plain, ok bool) {
	if !d.notNull() {
		return nil, false, false
	}
	return d.rawString()
}

// rawString reads a JSON string at the cursor and returns what stands
// between its quotes. plain reports that those bytes are the string itself:
// no escape and no invalid UTF-8 to replace.
func (d *Decoder) rawString() (raw []byte, plain, ok bool) {
	if !d.consume('"') {
		return nil, false, false
	}
	start, plain := d.pos, true
	for i := start; i < len(d.data); {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:i], plain, true
		case c == '\\':
			plain = false
			if i+1 == len(d.data) {
				i++
				break
			}
			switch d.data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if i+6 > len(d.data) || hex4(d.data[i+2:i+6]) < 0 {
					d.pos = i
					return nil, false, d.fail("invalid \\u escape")
				}
				i += 6
			default:
				d.pos = i
				return nil, false, d.fail("invalid escape")
			}
		case c < ' ':
			d.pos = i
			return nil, false, d.fail("control character in string")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	d.pos = len(d.data)
	return nil, false, d.fail("unterminated string")
}

// hex4 returns the value of four hex digits, or -1.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unquote appends the string raw spells to dst. raw has passed rawString, so
// every escape in it is well formed.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\':
			switch e := raw[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+2 : i+6])
				i += 6
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; anything else is U+FFFD
					// for the first half, and the second is read on its own.
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if pair := utf16.DecodeRune(r, hex4(raw[i+2:i+6])); pair != utf8.RuneError {
							dst = utf8.AppendRune(dst, pair)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && size == 1 {
				dst = utf8.AppendRune(dst, utf8.RuneError)
			} else {
				dst = append(dst, raw[i:i+size]...)
			}
			i += size
		}
	}
	return dst
}
