package harness

import (
	"bytes"
	"fmt"
	"reflect"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/metrics"
	"cvm/internal/trace"
)

// The determinism guard is the parallel engine's safety net: it proves
// that the DES engine produces byte-identical
// results at every worker count by running the same workload under a
// sweep of Config.EngineWorkers values and comparing every observable
// artifact — application checksum, run statistics, the serialized
// metrics report, and the exported Chrome trace. Identity must hold
// fault-free and under fault schedules (the chaos suite drives the
// guard with fuzzed plans), because fault rolls consume PRNG state in
// delivery order and would expose any nondeterminism in the commit.

// DeterminismProbe captures the byte-level artifacts of one run whose
// identity across engine worker counts the guard asserts.
type DeterminismProbe struct {
	EngineWorkers int
	Checksum      float64
	Stats         cvm.Stats
	ReportJSON    []byte // serialized metrics report
	Chrome        []byte // exported Chrome trace
	Events        int    // trace events recorded
}

// RunDeterminismProbe executes one run with the given engine worker
// count (engineWorkers ≥ 1) and collects its artifacts.
// fp may be nil for a fault-free run.
func RunDeterminismProbe(app string, size apps.Size, nodes, threads, engineWorkers int, fp *cvm.FaultPlan) (*DeterminismProbe, error) {
	return runDeterminismProbe(app, size, nodes, threads, engineWorkers, false, fp)
}

// RunDeterminismProbeAdaptive is RunDeterminismProbe with adaptive
// coherence switched on (and thread migration, when the application
// tolerates re-homing).
func RunDeterminismProbeAdaptive(app string, size apps.Size, nodes, threads, engineWorkers int, fp *cvm.FaultPlan) (*DeterminismProbe, error) {
	return runDeterminismProbe(app, size, nodes, threads, engineWorkers, true, fp)
}

func runDeterminismProbe(app string, size apps.Size, nodes, threads, engineWorkers int, adaptive bool, fp *cvm.FaultPlan) (*DeterminismProbe, error) {
	reg := cvm.NewMetrics()
	rec := trace.NewRecorder(nodes, threads, 0)
	cfg := cvm.DefaultConfig(nodes, threads)
	cfg.EngineWorkers = engineWorkers
	cfg.Metrics = reg
	cfg.Tracer = rec
	cfg.Faults = fp
	if adaptive {
		cfg.Adapt = true
		cfg.Migrate = apps.Migratable(app)
	}
	stats, sum, err := apps.RunConfigFull(app, size, cfg, 0)
	if err != nil {
		return nil, fmt.Errorf("harness: probe %s workers=%d: %w", app, engineWorkers, err)
	}
	meta := metrics.Meta{App: app, Config: fmt.Sprintf("%dx%d", nodes, threads)}
	rep := metrics.NewReport(meta, reg.Snapshot(), 10)
	var rj bytes.Buffer
	if err := rep.WriteJSON(&rj); err != nil {
		return nil, err
	}
	var cb bytes.Buffer
	if err := trace.WriteChrome(&cb, rec); err != nil {
		return nil, err
	}
	return &DeterminismProbe{
		EngineWorkers: engineWorkers,
		Checksum:      sum,
		Stats:         stats,
		ReportJSON:    rj.Bytes(),
		Chrome:        cb.Bytes(),
		Events:        rec.Len(),
	}, nil
}

// GuardDeterminism runs app at every worker count in workerCounts and
// returns an error describing the first artifact that differs from the
// first count's run; nil means every artifact was byte-identical.
func GuardDeterminism(app string, size apps.Size, nodes, threads int, workerCounts []int, fp *cvm.FaultPlan) error {
	return guardDeterminism(app, size, nodes, threads, workerCounts, false, fp)
}

// GuardDeterminismAdaptive is GuardDeterminism with adaptive coherence
// (and migration, for migration-safe apps) enabled on every probe: the
// classifier's decisions, the mode-change notices, and the migration
// orders must themselves be functions of the deterministic event order,
// so every artifact stays byte-identical across worker counts. Repeat a
// count in workerCounts to additionally assert run-to-run identity.
func GuardDeterminismAdaptive(app string, size apps.Size, nodes, threads int, workerCounts []int, fp *cvm.FaultPlan) error {
	return guardDeterminism(app, size, nodes, threads, workerCounts, true, fp)
}

func guardDeterminism(app string, size apps.Size, nodes, threads int, workerCounts []int, adaptive bool, fp *cvm.FaultPlan) error {
	if len(workerCounts) < 2 {
		return fmt.Errorf("harness: determinism guard needs at least two worker counts, got %v", workerCounts)
	}
	base, err := runDeterminismProbe(app, size, nodes, threads, workerCounts[0], adaptive, fp)
	if err != nil {
		return err
	}
	for _, w := range workerCounts[1:] {
		p, err := runDeterminismProbe(app, size, nodes, threads, w, adaptive, fp)
		if err != nil {
			return err
		}
		if err := base.diff(p); err != nil {
			return fmt.Errorf("harness: determinism violation in %s %dx%d (workers %d vs %d): %w",
				app, nodes, threads, base.EngineWorkers, p.EngineWorkers, err)
		}
	}
	return nil
}

// diff reports the first artifact in which other differs from p.
func (p *DeterminismProbe) diff(other *DeterminismProbe) error {
	if p.Checksum != other.Checksum {
		return fmt.Errorf("checksum %x != %x", p.Checksum, other.Checksum)
	}
	if !reflect.DeepEqual(p.Stats, other.Stats) {
		return fmt.Errorf("run statistics differ: %+v != %+v", p.Stats.Total, other.Stats.Total)
	}
	if !bytes.Equal(p.ReportJSON, other.ReportJSON) {
		return fmt.Errorf("metrics report bytes differ (%d vs %d bytes at first divergence %d)",
			len(p.ReportJSON), len(other.ReportJSON), firstDiff(p.ReportJSON, other.ReportJSON))
	}
	if p.Events != other.Events {
		return fmt.Errorf("trace event count %d != %d", p.Events, other.Events)
	}
	if !bytes.Equal(p.Chrome, other.Chrome) {
		return fmt.Errorf("chrome trace bytes differ (%d vs %d bytes at first divergence %d)",
			len(p.Chrome), len(other.Chrome), firstDiff(p.Chrome, other.Chrome))
	}
	return nil
}

// firstDiff returns the index of the first differing byte.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
