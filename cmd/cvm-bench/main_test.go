package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"bad size", []string{"-size", "huge"}, "huge"},
		{"negative metrics-interval", []string{"-metrics-interval", "-1ms", "-report"}, "-metrics-interval"},
		{"malformed metrics-interval", []string{"-metrics-interval", "x"}, "invalid value"},
		{"zero metrics-top", []string{"-metrics-top", "0", "-report"}, "-metrics-top"},
		{"zero scale-workers", []string{"-experiment", "scaleout", "-scale-workers", "0"}, "-scale-workers must be >= 1"},
		{"metrics without grid", []string{"-experiment", "table4", "-metrics", "m.json"}, "does not run it"},
		{"report without grid", []string{"-experiment", "perf", "-report"}, "does not run it"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q, want it to contain %q", tc.args, err, tc.want)
			}
		})
	}
}
