package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"negative limit", []string{"-limit", "-1", "-report"}, "-limit"},
		{"malformed limit", []string{"-limit", "many"}, "invalid value"},
		{"zero nodes", []string{"-nodes", "0", "-report"}, "-nodes"},
		{"zero threads", []string{"-threads", "0", "-report"}, "-threads"},
		{"positional args", []string{"-report", "extra"}, "unexpected arguments"},
		{"nothing to do", []string{"-app", "sor"}, "nothing to do"},
		{"bad fault spec", []string{"-report", "-faults", "dup=x"}, "dup"},
		{"seed without faults", []string{"-report", "-fault-seed", "3"}, "-fault-seed needs -faults"},
		{"zero engine workers", []string{"-report", "-engine-workers", "0"}, "-engine-workers must be >= 1"},
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

func TestReportRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-app", "sor", "-nodes", "2", "-threads", "2",
		"-size", "test", "-report"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "steady-state wall time") {
		t.Errorf("report output missing summary line: %q", out.String())
	}
}

// TestFaultedTraceRuns runs a faulted, checked, traced simulation: the
// exported trace carries injected-fault events, the transport summary
// prints, and the checker comes back clean.
func TestFaultedTraceRuns(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	if err := run([]string{"-app", "sor", "-nodes", "4", "-threads", "2", "-size", "test",
		"-faults", "drop=0.02,dup=0.01", "-fault-seed", "9", "-check", "-out", outPath}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"transport:", "retransmits", "invariant checker: no violations"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("faulted trace output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("fault-inject")) {
		t.Error("exported trace carries no fault-inject events")
	}
}
