package main

import (
	"strings"
	"testing"
)

// TestArgumentsAreNeverTruncated: what does not fit the wire's uint32,
// and what is no verb, is refused before any connection is dialed
// (no address is given, so a dial would fail with a different error).
func TestArgumentsAreNeverTruncated(t *testing.T) {
	for _, args := range [][]string{
		{"crash", "0", "4294967297"},
		{"crash", "4294967296", "1"},
		{"crash", "0", "-1"},
		{"admit", "1.5"},
		{"free", "x"},
	} {
		if err := run("", args); err == nil || !strings.Contains(err.Error(), "bad argument") {
			t.Errorf("run(%q) = %v, want a bad argument", args, err)
		}
	}
	for _, args := range [][]string{nil, {"alloc", "1"}, {"crash", "0"}, {"free"}} {
		if err := run("", args); err == nil || !strings.Contains(err.Error(), "usage") {
			t.Errorf("run(%q) = %v, want the usage", args, err)
		}
	}
}
