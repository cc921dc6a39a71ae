package apps

import (
	"testing"

	"cvm"
)

// TestWindowedSmoke is the cheap in-package determinism smoke for the
// windowed DES engine: one real application at several worker counts
// must pass its sequential-reference check (RunConfigFull fails on a
// mismatch) and agree on wall time and checksum exactly. The full
// byte-level guard (metrics reports, Chrome traces, fault schedules)
// lives in internal/harness and internal/chaos.
func TestWindowedSmoke(t *testing.T) {
	type res struct {
		wall cvm.Time
		sum  float64
	}
	var got []res
	for _, w := range []int{1, 2, 4} {
		cfg := cvm.DefaultConfig(4, 4)
		cfg.EngineWorkers = w
		stats, sum, err := RunConfigFull("sor", SizeSmall, cfg, 0)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		t.Logf("workers=%d wall=%v checksum=%x faults=%d", w, stats.Wall, sum, stats.Total.RemoteFaults)
		got = append(got, res{stats.Wall, sum})
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("divergence: workers=%d %+v vs workers=1 %+v", []int{1, 2, 4}[i], got[i], got[0])
		}
	}
}
