package harness

import (
	"fmt"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/metrics"
	"cvm/internal/rt"
)

// The transport-equivalence guard is the real-transport backend's
// conformance oracle: the same application at the same shape must
// produce the same checksum on the deterministic simulator (netsim,
// virtual time) and on the real runtime (internal/rt over the loopback
// transport, wall time). The applications quantize every shared-sum
// contribution onto an exact binary grid (apps.qfix), which makes their
// accumulations associative in float64 — so any CORRECT release-
// consistent execution yields a bit-identical checksum regardless of
// message timing, and a checksum difference is a coherence bug, not
// floating-point noise.
//
// Two observables are compared. First the checksum. Second, the
// backend-invariant sync counters (lock acquires/releases, barrier and
// local-barrier arrivals, reductions; metrics.BackendInvariantCounters):
// each is incremented exactly once per application-level call, so the
// program — not the protocol — determines them and they must match
// exactly across backends. Everything else (wall time, wait
// breakdowns, fault and message counts) is exempt by design: the
// simulator charges the paper's calibrated costs in deterministic
// virtual time under a lazy protocol, while the real runtime pays
// actual wall time under a home-based eager one — those numbers
// measure different machines and are not comparable. See DESIGN.md
// §11 and §13.

// TransportProbe captures one backend's run of an application.
type TransportProbe struct {
	Backend  string // "sim" or "loopback"
	Checksum float64
}

// GuardTransportEquivalence runs app at the given shape on both the
// simulator and the rt-loopback backend and returns an error unless
// the checksums match exactly (both runs must also verify against the
// app's sequential reference) and every backend-invariant sync counter
// agrees. A nil error is the conformance verdict.
func GuardTransportEquivalence(app string, size apps.Size, nodes, threads int) error {
	a, err := apps.New(app, size)
	if err != nil {
		return err
	}
	if !a.SupportsThreads(threads) {
		return fmt.Errorf("harness: %s does not support %d threads per node", app, threads)
	}

	reg := cvm.NewMetrics()
	cfg := cvm.DefaultConfig(nodes, threads)
	cfg.Metrics = reg
	_, simSum, err := apps.RunConfigFull(app, size, cfg, 0)
	if err != nil {
		return fmt.Errorf("harness: sim backend: %w", err)
	}

	rtSum, rtSnap, err := runLoopbackProbe(app, size, nodes, threads)
	if err != nil {
		return err
	}
	if rtSum != simSum {
		return fmt.Errorf("harness: transport equivalence violation in %s %dx%d: loopback checksum %v, sim %v",
			app, nodes, threads, rtSum, simSum)
	}
	simCounts := invariantCounts(reg.Snapshot())
	rtCounts := invariantCounts(rtSnap)
	for _, name := range metrics.BackendInvariantCounters() {
		if simCounts[name] != rtCounts[name] {
			return fmt.Errorf("harness: transport equivalence violation in %s %dx%d: %s is %d on loopback, %d on sim",
				app, nodes, threads, name, rtCounts[name], simCounts[name])
		}
	}
	return nil
}

// invariantCounts extracts the backend-invariant counters by JSON name.
func invariantCounts(s *metrics.Snapshot) map[string]int64 {
	want := make(map[string]bool)
	for _, name := range metrics.BackendInvariantCounters() {
		want[name] = true
	}
	out := make(map[string]int64)
	s.EachCounter(func(name string, c *metrics.Counter) {
		if want[name] {
			out[name] = int64(*c)
		}
	})
	return out
}

// runLoopbackProbe executes one application on the real runtime over
// the in-process loopback transport and returns its checksum and
// wall-clock metrics snapshot, after validating the result against the
// sequential reference.
func runLoopbackProbe(app string, size apps.Size, nodes, threads int) (float64, *metrics.Snapshot, error) {
	a, err := apps.New(app, size)
	if err != nil {
		return 0, nil, err
	}
	rcfg := rt.DefaultConfig(nodes, threads)
	rcfg.Metrics = metrics.NewRegistry()
	cl, err := rt.NewCluster(rcfg)
	if err != nil {
		return 0, nil, err
	}
	if err := a.Setup(cl); err != nil {
		return 0, nil, fmt.Errorf("harness: loopback backend: %w", err)
	}
	if _, err := cl.RunLoopback(a.Main); err != nil {
		return 0, nil, fmt.Errorf("harness: loopback backend: %w", err)
	}
	if err := a.Check(); err != nil {
		return 0, nil, fmt.Errorf("harness: loopback backend: %w", err)
	}
	return a.Checksum(), rcfg.Metrics.Snapshot(), nil
}
