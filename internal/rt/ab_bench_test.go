package rt_test

import (
	"testing"

	"cvm/internal/apps"
	"cvm/internal/metrics"
	"cvm/internal/rt"
)

// benchLoopback runs one full waternsq/test loopback cluster per
// iteration. The off/on pair is the metrics A/B: with Config.Metrics
// nil the runtime's observation gate is false and the hot paths pay
// only a nil check, so the off variant must track the uninstrumented
// runtime and the on variant prices the opt-in instrumentation.
func benchLoopback(b *testing.B, withMetrics bool) {
	for i := 0; i < b.N; i++ {
		a, err := apps.New("waternsq", apps.SizeTest)
		if err != nil {
			b.Fatal(err)
		}
		cfg := rt.DefaultConfig(4, 2)
		if withMetrics {
			cfg.Metrics = metrics.NewRegistry()
		}
		cl, err := rt.NewCluster(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := a.Setup(cl); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.RunLoopback(a.Main); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoopbackMetricsOff(b *testing.B) { benchLoopback(b, false) }
func BenchmarkLoopbackMetricsOn(b *testing.B)  { benchLoopback(b, true) }
