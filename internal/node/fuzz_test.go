package node

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// splitFieldsRef is the tokenizer splitFields replaced: every field built
// byte by byte in a strings.Builder. Kept as the oracle.
func splitFieldsRef(line string, env map[string]string) ([]string, error) {
	var fields []string
	var cur strings.Builder
	inField := false
	i := 0
	flush := func() {
		if inField {
			fields = append(fields, cur.String())
			cur.Reset()
			inField = false
		}
	}
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			flush()
			i++
		case c == '\'':
			inField = true
			end := strings.IndexByte(line[i+1:], '\'')
			if end < 0 {
				return nil, fmt.Errorf("unterminated single quote")
			}
			cur.WriteString(line[i+1 : i+1+end])
			i += end + 2
		case c == '"':
			inField = true
			end := strings.IndexByte(line[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("unterminated double quote")
			}
			cur.WriteString(expand(line[i+1:i+1+end], env))
			i += end + 2
		case c == '$':
			inField = true
			name, consumed, err := parseVarRef(line[i:])
			if err != nil {
				return nil, err
			}
			cur.WriteString(env[name])
			i += consumed
		case c == '#':
			flush()
			return fields, nil
		default:
			inField = true
			cur.WriteByte(c)
			i++
		}
	}
	flush()
	return fields, nil
}

// FuzzSplitFields holds the tokenizer to its reference: same fields, same
// errors, for any line.
func FuzzSplitFields(f *testing.F) {
	for _, line := range []string{
		"", "   ", "echo hello world", "pos_run moongen.log moongen $pkt_sz ${pkt_rate} 1",
		`echo "a $A b" 'lit $A' pre$A"mid"'post'`, "echo '' \"\" $UNSET x", "a#b # c", "# only",
		"echo 'open", `echo "open`, "echo ${open", "tab\tsep\t\tx", "$", "a$", "\xff$A\xfe 'q'\"$B\"",
	} {
		f.Add(line)
	}
	env := map[string]string{"A": "alpha", "B": "", "pkt_sz": "64", "pkt_rate": "10000", "S": "has space $A"}
	f.Fuzz(func(t *testing.T, line string) {
		got, gotErr := splitFields(line, env)
		want, wantErr := splitFieldsRef(line, env)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("splitFields(%q) err = %v, want %v", line, gotErr, wantErr)
		}
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("splitFields(%q) = %q, want %q", line, got, want)
		}
	})
}

// Property: the script interpreter never panics, whatever bytes are thrown
// at it — a malformed published script must fail cleanly, not crash the
// controller.
func TestExecNeverPanicsProperty(t *testing.T) {
	n := bootedNode(t)
	prop := func(script string) (ok bool) {
		defer func() {
			if recover() != nil {
				t.Logf("panic on script %q", script)
				ok = false
			}
		}()
		_, _ = n.Exec(context.Background(), script, nil)
		// Recover the node if the random script happened to contain
		// a crash builtin.
		if n.State() != StateRunning {
			if err := n.Reset(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: variable expansion output never references the raw "$" marker
// for defined variables, and expansion is length-bounded (no runaway
// recursion: values are substituted literally, not re-expanded).
func TestExpansionIsLiteralProperty(t *testing.T) {
	n := bootedNode(t)
	prop := func(val string) bool {
		if strings.ContainsAny(val, "\n\r") {
			return true // one-line scripts only
		}
		// A value containing $X must NOT be re-expanded.
		env := map[string]string{"A": val + "$B", "B": "boom"}
		out, err := n.Exec(context.Background(), `echo "$A"`, env)
		if err != nil {
			return false
		}
		return strings.Contains(out, "$B") || strings.Contains(val, "$")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDeepScriptsTerminate(t *testing.T) {
	n := bootedNode(t)
	script := strings.Repeat("echo line\n", 10_000)
	out, err := n.Exec(context.Background(), script, nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(out, "line") != 10_000 {
		t.Errorf("lines = %d", strings.Count(out, "line"))
	}
}
