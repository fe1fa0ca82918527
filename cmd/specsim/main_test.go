package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSpecsimRejectsIgnoredFlags: a flag value the run would ignore or
// cannot honor is an error naming the flag and its valid values, before
// anything simulates — never a run that reports as if it applied.
func TestSpecsimRejectsIgnoredFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string // substrings of the error
	}{
		{[]string{"-runs", "0"}, []string{"-runs 0", "at least 1"}},
		{[]string{"-runs", "-3"}, []string{"-runs -3", "at least 1"}},
		{[]string{"-cycles", "0"}, []string{"-cycles 0", "at least 1"}},
		{[]string{"-bw", "0.1"}, []string{"-bw", "-net static, adaptive or simplified"}},
		{[]string{"-bw", "0.1", "-buffers", "2"}, []string{"-bw", "-net static, adaptive or simplified"}},
		{[]string{"-buffers", "2"}, []string{"-buffers", "-net simplified"}},
		{[]string{"-net", "static", "-buffers", "2"}, []string{"-buffers", "-net simplified"}},
		{[]string{"-net", "adaptive", "-bw", "0.4", "-buffers", "4"}, []string{"-buffers", "-net simplified"}},
		{[]string{"-net", "simplified", "-buffers", "0"}, []string{"-buffers 0", "at least 1", "sweep -exp buffers"}},
		{[]string{"-net", "simplified", "-buffers", "-2"}, []string{"-buffers -2", "at least 1", "sweep -exp buffers"}},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("specsim %v: exit %d, want 1", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("specsim %v ran before rejecting its flags:\n%s", tc.args, stdout.String())
		}
		for _, w := range tc.want {
			if !strings.Contains(stderr.String(), w) {
				t.Errorf("specsim %v: error %q does not mention %q", tc.args, stderr.String(), w)
			}
		}
	}
}

// TestSpecsimAcceptsNetworkFlags: -bw and -buffers with the -net they
// size pass the check and run.
func TestSpecsimAcceptsNetworkFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-net", "simplified", "-buffers", "2", "-bw", "0.2", "-cycles", "2000"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("specsim %v: exit %d\n%s", args, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "cycles:        2000\n") {
		t.Fatalf("specsim %v: report lacks the 2000-cycle line:\n%s", args, stdout.String())
	}
}
