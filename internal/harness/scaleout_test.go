package harness

import (
	"bytes"
	"testing"

	"cvm/internal/apps"
)

// TestScaleSmoke is the `make scale-smoke` gate: a 256-node scaleout run
// must complete, pass the app's own checksum validation (its closed-form
// result stands in for a sequential reference), and be byte-identical —
// checksum, statistics, metrics report, trace — across engine worker
// counts. This is the determinism guard at a cluster size far past
// anything the paper grid exercises (and past the old 64-node copyset
// ceiling).
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("256-node smoke skipped in -short")
	}
	if raceEnabled {
		// ~10x slowdown at this size; the engine's worker goroutines get
		// race coverage from TestGuardDeterminism at small sizes.
		t.Skip("256-node smoke skipped under the race detector")
	}
	const nodes, threads = 256, 1
	base, err := RunDeterminismProbe("scaleout", apps.SizeTest, nodes, threads, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RunDeterminismProbe("scaleout", apps.SizeTest, nodes, threads, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.diff(p); err != nil {
		t.Fatalf("engine workers 1 vs 2 diverged: %v", err)
	}
	if base.Stats.Total.RemoteFaults == 0 || base.Stats.Total.RemoteLocks == 0 {
		t.Errorf("smoke run exercised no remote primitives: %+v", base.Stats.Total)
	}
}

// TestRunScaleStudy checks the study runner end to end at toy sizes:
// schema population, the compression win, and JSON round-tripping.
func TestRunScaleStudy(t *testing.T) {
	study, err := RunScaleStudy([]int{2, 4}, 2, apps.SizeTest, []bool{false, true}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(study.Points) != 4 {
		t.Fatalf("got %d points, want 4", len(study.Points))
	}
	for i := 0; i < len(study.Points); i += 2 {
		raw, comp := study.Points[i], study.Points[i+1]
		if raw.Compress || !comp.Compress {
			t.Fatalf("point order: %+v then %+v", raw, comp)
		}
		if raw.Nodes != comp.Nodes || raw.Checksum != comp.Checksum {
			t.Errorf("compression changed the result: %+v vs %+v", raw, comp)
		}
		if comp.DiffBytes >= raw.DiffBytes {
			t.Errorf("nodes=%d: compressed diff bytes %d not below raw %d",
				raw.Nodes, comp.DiffBytes, raw.DiffBytes)
		}
		if raw.Pages <= 0 || raw.WallNs <= 0 || raw.RemoteFaults <= 0 {
			t.Errorf("nodes=%d: implausible point %+v", raw.Nodes, raw)
		}
	}

	var buf bytes.Buffer
	if err := WriteScaleBaseline(&buf, study); err != nil {
		t.Fatal(err)
	}
	back, err := ReadScaleBaseline(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(study.Points) || back.Points[3] != study.Points[3] {
		t.Errorf("JSON round trip lost data: %+v", back)
	}
}
