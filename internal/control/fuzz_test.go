package control

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzParsePolicy throws arbitrary text at the fleet-policy parser,
// the boundary every operator-written policy file crosses. It may
// reject its input however it likes but must never panic, and every
// error it reports must point at a line of the file — "<file>:<line>:"
// with 1 <= line <= the file's line count — so an operator can always
// find the problem. The committed corpus under
// testdata/fuzz/FuzzParsePolicy holds the policy_test.go documents
// plus hostile inputs (tabs, duplicate keys, deep nesting,
// out-of-range and overflowing ints, unterminated quotes).
func FuzzParsePolicy(f *testing.F) {
	name := filepath.Join(f.TempDir(), "fleet.yaml")
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePolicy(name, data)
		if err == nil {
			if p == nil || len(p.Buses) == 0 {
				t.Fatalf("accepted policy has no buses: %+v", p)
			}
			return
		}
		if p != nil {
			t.Fatalf("ParsePolicy returned a policy with error %v", err)
		}
		list := []error{err}
		if j, ok := err.(interface{ Unwrap() []error }); ok {
			list = j.Unwrap()
		}
		lines := strings.Count(string(data), "\n") + 1
		for _, e := range list {
			rest, ok := strings.CutPrefix(e.Error(), name+":")
			num, _, found := strings.Cut(rest, ":")
			n, nerr := strconv.Atoi(num)
			if !ok || !found || nerr != nil || n < 1 || n > lines {
				t.Fatalf("error does not name a line of the file (%d lines): %q", lines, e)
			}
		}
	})
}
