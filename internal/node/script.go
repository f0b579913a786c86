package node

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Exec interprets an experiment script on the node and returns the combined
// captured output. extraEnv overlays the node environment for this execution
// only (this is how pos injects global/local/loop variables into a run).
//
// Script language: one command per line; '#' starts a comment; blank lines
// are skipped; $NAME and ${NAME} expand from the environment; double quotes
// group words and expand variables, single quotes group literally. The first
// failing command aborts the script (set -e semantics — an experiment must
// never silently continue past an error). A non-zero `exit` or a failing
// command yields an *ExitError carrying the output so far.
func (n *Node) Exec(ctx context.Context, script string, extraEnv map[string]string) (string, error) {
	if err := n.runnable(); err != nil {
		return "", err
	}
	env := n.snapshotEnv(extraEnv)
	var out bytes.Buffer

	// One pass over the script's lines, numbered as strings.Split would.
	for lineNo, more := 0, true; more; lineNo++ {
		var raw string
		raw, script, more = strings.Cut(script, "\n")
		if err := ctx.Err(); err != nil {
			return out.String(), err
		}
		// Re-check liveness: a command may have wedged the node.
		if err := n.runnable(); err != nil {
			return out.String(), err
		}
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields, err := splitFields(line, env)
		if err != nil {
			return out.String(), &ExitError{Code: 2, Output: out.String() +
				fmt.Sprintf("%s: line %d: %v\n", n.Name, lineNo+1, err)}
		}
		if len(fields) == 0 {
			continue
		}
		name, args := fields[0], fields[1:]
		if code, handled, err := n.builtin(ctx, name, args, env, &out); handled {
			if err != nil {
				return out.String(), err
			}
			if code != 0 {
				return out.String(), &ExitError{Code: code, Output: out.String()}
			}
			continue
		}
		cmd, ok := n.command(name)
		if !ok {
			msg := fmt.Sprintf("%s: line %d: %s: command not found\n", n.Name, lineNo+1, name)
			out.WriteString(msg)
			return out.String(), &ExitError{Code: 127, Output: out.String()}
		}
		if err := cmd(ctx, n, args, &out, &out); err != nil {
			fmt.Fprintf(&out, "%s: line %d: %s: %v\n", n.Name, lineNo+1, name, err)
			return out.String(), &ExitError{Code: 1, Output: out.String()}
		}
	}
	return out.String(), nil
}

// builtin executes shell builtins. handled reports whether name was one.
func (n *Node) builtin(ctx context.Context, name string, args []string, env map[string]string, out *bytes.Buffer) (code int, handled bool, err error) {
	switch name {
	case "echo":
		fmt.Fprintln(out, strings.Join(args, " "))
		return 0, true, nil
	case "set":
		if len(args) != 2 {
			fmt.Fprintf(out, "set: want 2 args, got %d\n", len(args))
			return 2, true, nil
		}
		env[args[0]] = args[1]
		// Persist for later scripts in the same boot.
		if err := n.Setenv(args[0], args[1]); err != nil {
			return 0, true, err
		}
		return 0, true, nil
	case "env":
		keys := make([]string, 0, len(env))
		for k := range env {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(out, "%s=%s\n", k, env[k])
		}
		return 0, true, nil
	case "cat":
		if len(args) != 1 {
			fmt.Fprintln(out, "cat: want exactly one path")
			return 2, true, nil
		}
		data, err := n.ReadFile(args[0])
		if err != nil {
			fmt.Fprintf(out, "cat: %v\n", err)
			return 1, true, nil
		}
		out.Write(data)
		return 0, true, nil
	case "write":
		if len(args) < 1 {
			fmt.Fprintln(out, "write: want path [content...]")
			return 2, true, nil
		}
		content := strings.Join(args[1:], " ")
		if err := n.WriteFile(args[0], []byte(content)); err != nil {
			return 0, true, err
		}
		return 0, true, nil
	case "sleep_ms":
		if len(args) != 1 {
			return 2, true, nil
		}
		ms, err := strconv.Atoi(args[0])
		if err != nil || ms < 0 {
			fmt.Fprintf(out, "sleep_ms: bad duration %q\n", args[0])
			return 2, true, nil
		}
		select {
		case <-ctx.Done():
			return 0, true, ctx.Err()
		case <-time.After(time.Duration(ms) * time.Millisecond):
		}
		return 0, true, nil
	case "exit":
		code := 0
		if len(args) == 1 {
			code, _ = strconv.Atoi(args[0])
		}
		return code, true, nil
	case "fail":
		fmt.Fprintf(out, "fail: %s\n", strings.Join(args, " "))
		return 1, true, nil
	case "true":
		return 0, true, nil
	case "hostname":
		fmt.Fprintln(out, n.Name)
		return 0, true, nil
	case "crash":
		// Deliberately wedge the OS — failure injection from inside a
		// script.
		n.Wedge()
		return 0, true, nil
	}
	return 0, false, nil
}

// splitFields tokenizes a command line with quoting and $-substitution.
func splitFields(line string, env map[string]string) ([]string, error) {
	fields := make([]string, 0, 8)
	// A field is the concatenation of its pieces: runs of plain bytes, quoted
	// strings, variable values. One made of a single piece — nearly all of
	// them — is that piece, a substring of line or a value from env, and
	// costs no allocation; only a second piece starts the builder.
	var (
		cur     strings.Builder
		field   string
		inField bool
		built   bool
	)
	add := func(piece string) {
		switch {
		case !inField:
			field, inField = piece, true
		case !built:
			cur.WriteString(field)
			built = true
			fallthrough
		default:
			cur.WriteString(piece)
		}
	}
	flush := func() {
		if built {
			field = cur.String()
			cur.Reset()
		}
		if inField {
			fields = append(fields, field)
		}
		inField, built = false, false
	}
	for i := 0; i < len(line); {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			flush()
			i++
		case c == '\'':
			end := strings.IndexByte(line[i+1:], '\'')
			if end < 0 {
				return nil, fmt.Errorf("unterminated single quote")
			}
			add(line[i+1 : i+1+end])
			i += end + 2
		case c == '"':
			end := strings.IndexByte(line[i+1:], '"')
			if end < 0 {
				return nil, fmt.Errorf("unterminated double quote")
			}
			add(expand(line[i+1:i+1+end], env))
			i += end + 2
		case c == '$':
			name, consumed, err := parseVarRef(line[i:])
			if err != nil {
				return nil, err
			}
			add(env[name])
			i += consumed
		case c == '#':
			// Unquoted # starts a trailing comment.
			flush()
			return fields, nil
		default:
			start := i
			for i < len(line) && isPlain(line[i]) {
				i++
			}
			add(line[start:i])
		}
	}
	flush()
	return fields, nil
}

// isPlain reports whether c is an ordinary field byte: not a separator, a
// quote, a variable reference or a comment marker.
func isPlain(c byte) bool {
	switch c {
	case ' ', '\t', '\'', '"', '$', '#':
		return false
	}
	return true
}

// expand substitutes $NAME and ${NAME} inside double-quoted text.
func expand(s string, env map[string]string) string {
	if strings.IndexByte(s, '$') < 0 {
		return s
	}
	var out strings.Builder
	for i := 0; i < len(s); {
		if s[i] != '$' {
			out.WriteByte(s[i])
			i++
			continue
		}
		name, consumed, err := parseVarRef(s[i:])
		if err != nil || name == "" {
			out.WriteByte(s[i])
			i++
			continue
		}
		out.WriteString(env[name])
		i += consumed
	}
	return out.String()
}

// parseVarRef parses $NAME or ${NAME} at the start of s (s[0] must be '$').
// It returns the variable name and bytes consumed.
func parseVarRef(s string) (name string, consumed int, err error) {
	if len(s) < 2 {
		return "", 1, nil
	}
	if s[1] == '{' {
		end := strings.IndexByte(s, '}')
		if end < 0 {
			return "", 0, fmt.Errorf("unterminated ${")
		}
		return s[2:end], end + 1, nil
	}
	j := 1
	for j < len(s) && (isAlnum(s[j]) || s[j] == '_') {
		j++
	}
	return s[1:j], j, nil
}

func isAlnum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}
