package chaos

import (
	"fmt"
	"testing"

	"cvm/internal/apps"
)

// TestEngineWorkersUnderChaos is the engine-parallelism axis of the
// chaos suite: the same fuzzed fault schedule must yield the fault-free
// checksum and zero invariant violations at several engine worker
// counts, and the runs must agree with each other on every statistic.
func TestEngineWorkersUnderChaos(t *testing.T) {
	app := "sor"
	want := baseline(t, app)
	for _, seed := range []uint64{7, 19} {
		spec := RandomSpec(seed)
		fp := mustPlan(t, spec, seed)
		var first *Result
		for _, workers := range []int{1, 2, 4} {
			res, err := RunOneEngine(app, apps.SizeTest, chaosNodes, chaosThreads, workers, fp, nil)
			ctx := fmt.Sprintf("%s spec=%q seed=%d engine-workers=%d", app, spec, seed, workers)
			assertClean(t, app, ctx, res, err)
			if res.Checksum != want {
				t.Errorf("%s: checksum %x, fault-free baseline %x", ctx, res.Checksum, want)
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
