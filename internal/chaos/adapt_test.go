package chaos

import (
	"fmt"
	"testing"

	"cvm/internal/apps"
	"cvm/internal/harness"
)

// TestAdaptiveUnderChaos is the adaptive axis of the chaos suite: fuzzed
// fault schedules against runs with per-page mode switching (and, for
// migration-safe apps, thread migration) enabled, at several engine
// worker counts. Adaptation must not change the computation (fault-free
// checksum, bit for bit), must stay invariant-clean under faults, and
// the runs must agree with each other on every statistic — mode decisions and
// migration orders are functions of per-epoch protocol observations,
// so engine parallelism and retransmission timing must not leak in.
func TestAdaptiveUnderChaos(t *testing.T) {
	for _, tc := range []struct {
		app     string
		migrate bool
	}{
		{"sor", true},     // barrier-phased producer-consumer pages; migration-safe
		{"barnes", false}, // mode switching alone on an irregular sharer set
	} {
		want := baseline(t, tc.app)
		for _, seed := range []uint64{7, 19} {
			spec := RandomSpec(seed)
			fp := mustPlan(t, spec, seed)
			var first *Result
			for _, workers := range []int{1, 2, 4} {
				res, err := RunOneAdaptive(tc.app, apps.SizeTest, chaosNodes, chaosThreads,
					workers, tc.migrate, fp, nil)
				ctx := fmt.Sprintf("%s adapt migrate=%v spec=%q seed=%d engine-workers=%d",
					tc.app, tc.migrate, spec, seed, workers)
				assertClean(t, tc.app, ctx, res, err)
				if res.Checksum != want {
					t.Errorf("%s: checksum %x, fault-free baseline %x", ctx, res.Checksum, want)
				}
				if err == nil && res.Stats.Total.ModeChanges == 0 {
					t.Errorf("%s: adaptive run applied no mode changes (axis not exercised)", ctx)
				}
				if first == nil {
					r := res
					first = &r
					continue
				}
				if res.Stats.Wall != first.Stats.Wall ||
					res.Stats.Total != first.Stats.Total ||
					!res.Stats.Net.Equal(first.Stats.Net) {
					t.Errorf("%s: stats diverge from workers=1", ctx)
				}
			}
		}
	}
}

// TestAdaptiveFaultFree pins the no-fault adaptive runs across the whole
// suite: every application runs clean under -adapt (and -migrate where
// safe) with zero invariant violations and its fault-free checksum.
func TestAdaptiveFaultFree(t *testing.T) {
	for _, app := range harness.AppOrder {
		app := app
		t.Run(app, func(t *testing.T) {
			res, err := RunOneAdaptive(app, apps.SizeTest, chaosNodes, chaosThreads,
				1, true, nil, nil)
			assertClean(t, app, "adapt fault-free", res, err)
		})
	}
}
