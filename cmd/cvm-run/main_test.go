package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cvm/internal/metrics"
)

// runErr runs the command line and returns its error.
func runErr(args ...string) error {
	var out bytes.Buffer
	return run(args, &out)
}

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"negative trace-limit", []string{"-trace-limit", "-1", "-trace", "x.json"}, "-trace-limit"},
		{"malformed trace-limit", []string{"-trace-limit", "two"}, "invalid value"},
		{"negative metrics-interval", []string{"-metrics-interval", "-5ms", "-report"}, "-metrics-interval"},
		{"malformed metrics-interval", []string{"-metrics-interval", "soon"}, "invalid value"},
		{"zero metrics-top", []string{"-metrics-top", "0", "-report"}, "-metrics-top"},
		{"positional args", []string{"-app", "sor", "extra"}, "unexpected arguments"},
		{"bad threads", []string{"-threads", "0"}, "bad -threads"},
		{"bad threads list", []string{"-threads", "1,x"}, "bad -threads"},
		{"unknown app", []string{"-app", "nosuch", "-size", "test"}, "nosuch"},
		{"sweep with trace", []string{"-threads", "1,2", "-trace", "x.json"}, "single -threads level"},
		{"sweep with report", []string{"-threads", "1,2", "-report"}, "single -threads level"},
		{"sweep with check", []string{"-threads", "1,2", "-check"}, "single -threads level"},
		{"bad fault spec", []string{"-faults", "drop=2"}, "drop"},
		{"unknown fault item", []string{"-faults", "frobnicate=1"}, "frobnicate"},
		{"seed without faults", []string{"-fault-seed", "7"}, "-fault-seed needs -faults"},
		{"unknown transport", []string{"-transport", "carrier-pigeon"}, "-transport must be sim or loopback"},
		{"loopback with check", []string{"-transport", "loopback", "-check"}, "virtual-time invariant checker"},
		{"loopback with metrics interval", []string{"-transport", "loopback", "-metrics-interval", "1ms"}, "virtual-time timeline"},
		{"loopback with faults", []string{"-transport", "loopback", "-faults", "drop=0.01"}, "cannot inject simulated faults"},
		{"zero engine workers", []string{"-engine-workers", "0"}, "-engine-workers must be >= 1"},
		{"negative engine workers", []string{"-engine-workers", "-2"}, "-engine-workers must be >= 1"},
		{"loopback with engine workers", []string{"-transport", "loopback", "-engine-workers", "2"}, "-engine-workers tunes the simulator"},
		{"loopback with explicit default engine workers", []string{"-transport", "loopback", "-engine-workers", "1"}, "-engine-workers tunes the simulator"},
		{"loopback with compress-diffs", []string{"-transport", "loopback", "-compress-diffs"}, "-compress-diffs tunes the simulator"},
		{"loopback with sweep", []string{"-transport", "loopback", "-threads", "1,2"}, "single -threads level"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runErr(tc.args...)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q, want it to contain %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestMetricsRunEmitsReadableReport runs a small instrumented simulation
// end to end: the JSON report parses, carries every node, and the text
// report prints the profile sections.
func TestMetricsRunEmitsReadableReport(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "prof.json")
	csvPath := filepath.Join(dir, "prof.csv")

	var out bytes.Buffer
	err := run([]string{"-app", "sor", "-nodes", "2", "-threads", "2", "-size", "test",
		"-report", "-metrics", jsonPath, "-metrics-csv", csvPath}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{
		"wall-time breakdown", "latency histograms", "hottest pages", "utilization timeline",
	} {
		if !strings.Contains(out.String(), section) {
			t.Errorf("-report output is missing %q section", section)
		}
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.ReadReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Snapshot.Nodes) != 2 {
		t.Errorf("report has %d nodes, want 2", len(rep.Snapshot.Nodes))
	}
	if rep.Snapshot.Nodes[0].UserBurst.Count == 0 {
		t.Error("report carries no user-burst observations")
	}

	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "scope,metric,count,") {
		t.Errorf("CSV header missing: %q", string(csv[:40]))
	}
}

// TestFaultedRunReportsTransport runs a faulted, checked simulation end
// to end: the result still verifies, the report gains the transport
// section with retransmissions observed, and the invariant checker
// comes back clean.
func TestFaultedRunReportsTransport(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-app", "sor", "-nodes", "4", "-threads", "2", "-size", "test",
		"-faults", "drop=0.02,dup=0.01", "-fault-seed", "9", "-check"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"retransmits", "duplicates suppressed", "invariant checker: no violations"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("faulted run output missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "retransmits  0\n") {
		t.Errorf("2%% drop run reported zero retransmits:\n%s", out.String())
	}
}

// TestFaultedSweepRuns exercises the sweep path under faults: every
// level reports, each with its transport section.
func TestFaultedSweepRuns(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-app", "sor", "-nodes", "2", "-threads", "1,2", "-size", "test",
		"-faults", "drop=0.01"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(out.String(), "duplicates suppressed"); got != 2 {
		t.Errorf("sweep printed %d transport sections, want 2:\n%s", got, out.String())
	}
}

// TestLoopbackTransportRun executes one run on the real in-process
// backend through the command entry point and checks the reduced
// report: wall time plus actual transport traffic, no virtual-time
// sections.
func TestLoopbackTransportRun(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-app", "sor", "-nodes", "4", "-threads", "2", "-size", "test",
		"-transport", "loopback"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"over loopback: result verified", "wall time", "checksum", "total messages",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("loopback report missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "steady-state wall time") {
		t.Errorf("loopback report leaked the simulator's report:\n%s", out.String())
	}
}

// TestLoopbackInstrumentedRun drives the wall-clock observability path
// end to end: -metrics and -trace on the loopback backend must write a
// report stamped with the real-backend section (so diff-backends can
// tell the two apart) and a non-empty Chrome trace.
func TestLoopbackInstrumentedRun(t *testing.T) {
	dir := t.TempDir()
	metPath := filepath.Join(dir, "real.json")
	tracePath := filepath.Join(dir, "real_trace.json")
	var out bytes.Buffer
	err := run([]string{"-app", "waternsq", "-nodes", "4", "-threads", "2", "-size", "test",
		"-transport", "loopback", "-metrics", metPath, "-trace", tracePath, "-report"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(metPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := metrics.ReadReport(raw)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Real == nil || rep.Real.Backend != "loopback" || rep.Real.Nodes != 4 {
		t.Fatalf("loopback report real section = %+v, want backend loopback on 4 nodes", rep.Real)
	}
	if rep.Snapshot.LockAcquires == 0 || rep.Snapshot.BarrierArrivals == 0 {
		t.Errorf("loopback report has zero sync counters: acquires=%d arrivals=%d",
			rep.Snapshot.LockAcquires, rep.Snapshot.BarrierArrivals)
	}
	tr, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tr, []byte("traceEvents")) {
		t.Errorf("loopback trace is not a Chrome trace: %.100s", tr)
	}
	if !strings.Contains(out.String(), "real transport (loopback") {
		t.Errorf("-report did not render the real-backend section:\n%s", out.String())
	}
}

// TestMetricsRunDeterministic asserts two identical instrumented runs
// write byte-identical JSON reports.
func TestMetricsRunDeterministic(t *testing.T) {
	dir := t.TempDir()
	emit := func(name string) []byte {
		path := filepath.Join(dir, name)
		var out bytes.Buffer
		if err := run([]string{"-app", "sor", "-nodes", "2", "-threads", "2",
			"-size", "test", "-metrics", path}, &out); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(emit("a.json"), emit("b.json")) {
		t.Fatal("repeated runs wrote different metrics reports")
	}
}

// TestHostProfiles runs a small simulation with -cpuprofile and
// -memprofile and checks both files are non-empty gzip-compressed
// pprof profiles.
func TestHostProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	if err := runErr("-app", "sor", "-nodes", "2", "-threads", "2", "-size", "test",
		"-cpuprofile", cpu, "-memprofile", mem); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: not gzip: %v", path, err)
		}
		if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
			t.Fatalf("%s: empty or unreadable profile (%d bytes, %v)", path, len(body), err)
		}
	}
}
