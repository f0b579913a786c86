package main

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestTableOnePrintsComparison(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-table", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 1: Comparison between testbeds", "Chameleon", "SNDZoo", "fully supported"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "Figure") {
		t.Errorf("-table 1 reproduced more than the table:\n%s", out.String())
	}
}

// TestNoFlagsIsUsageError: with nothing to reproduce, run reports errUsage,
// which main turns into exit status 2.
func TestNoFlagsIsUsageError(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); !errors.Is(err, errUsage) {
		t.Errorf("run() = %v, want errUsage", err)
	}
	if err := run([]string{"-no-such-flag"}, io.Discard); !errors.Is(err, errUsage) {
		t.Errorf("run(-no-such-flag) = %v, want errUsage", err)
	}
	if out.Len() != 0 {
		t.Errorf("usage error wrote to stdout: %q", out.String())
	}
}
