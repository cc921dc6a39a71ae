// Command cvm-metrics inspects and compares the JSON artifacts the other
// tools emit: metrics reports (cvm-run -metrics, cvm-bench -metrics) and
// harness perf baselines (cvm-bench -experiment perf -json).
//
// Usage:
//
//	cvm-metrics show profile.json
//	cvm-metrics compare baseline.json current.json
//	cvm-metrics compare -tol 0.10 -hard-latency BASELINE_metrics.json profile.json
//	cvm-metrics compare BENCH_baseline.json BENCH_harness.json
//	cvm-metrics diff-backends sim.json loopback.json
//	cvm-metrics scrape 127.0.0.1:8100
//
// diff-backends gates the sim-vs-real counter equivalence: the
// backend-invariant sync counters must match exactly between a
// simulator report and a real-backend report of the same run, while
// time-typed metrics (virtual vs wall nanoseconds) print side by side.
// scrape probes a live cvm-node debug server (-debug-addr) without
// needing curl: /healthz must answer and /metrics must be non-trivial.
//
// compare sniffs the schema: files with a "micro" key are harness perf
// baselines (ns/op drifts warn, allocs/op increases and determinism
// violations fail); files with a "snapshot" key are metrics reports
// (count drift in either direction fails — virtual-time runs are
// deterministic, so event counts must match exactly — and mean-latency
// increases beyond -tol warn, or fail with -hard-latency). The exit
// status is nonzero iff any finding fails, so the command gates
// `make check` and CI.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cvm/internal/harness"
	"cvm/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-metrics:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cvm-metrics <show|compare> [flags] <file>...")
	}
	switch args[0] {
	case "show":
		return runShow(args[1:], out)
	case "compare":
		return runCompare(args[1:], out)
	case "diff-backends":
		return runDiffBackends(args[1:], out)
	case "scrape":
		return runScrape(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want show, compare, diff-backends or scrape)", args[0])
	}
}

// runShow prints the human-readable profile of a JSON metrics report.
func runShow(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cvm-metrics show", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cvm-metrics show <report.json>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := metrics.ReadReport(data)
	if err != nil {
		return fmt.Errorf("%s: %v", fs.Arg(0), err)
	}
	return rep.WriteText(out)
}

// runCompare diffs two JSON artifacts of the same schema and exits
// nonzero when the current file regresses past tolerance.
func runCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cvm-metrics compare", flag.ContinueOnError)
	var (
		tol         = fs.Float64("tol", metrics.DefaultCompareOpts.LatencyTol, "relative latency tolerance (0.25 = +25% mean before a finding)")
		hardLatency = fs.Bool("hard-latency", false, "fail (not just warn) on latency regressions beyond -tol")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: cvm-metrics compare [flags] <baseline.json> <current.json>")
	}
	if *tol < 0 {
		return fmt.Errorf("-tol must be >= 0, got %v", *tol)
	}
	basePath, curPath := fs.Arg(0), fs.Arg(1)
	base, err := os.ReadFile(basePath)
	if err != nil {
		return err
	}
	cur, err := os.ReadFile(curPath)
	if err != nil {
		return err
	}

	var findings []metrics.Finding
	switch {
	case isPerfBaseline(base):
		if !isPerfBaseline(cur) {
			return fmt.Errorf("%s is a perf baseline but %s is not", basePath, curPath)
		}
		findings, err = comparePerf(base, cur, *tol)
	default:
		baseRep, rerr := metrics.ReadReport(base)
		if rerr != nil {
			return fmt.Errorf("%s: %v", basePath, rerr)
		}
		curRep, rerr := metrics.ReadReport(cur)
		if rerr != nil {
			return fmt.Errorf("%s: %v", curPath, rerr)
		}
		opts := metrics.DefaultCompareOpts
		opts.LatencyTol = *tol
		opts.HardLatency = *hardLatency
		findings = metrics.CompareReports(baseRep, curRep, opts)
	}
	if err != nil {
		return err
	}

	fails := 0
	for _, f := range findings {
		if f.Level == metrics.LevelFail {
			fails++
		}
		fmt.Fprintf(out, "%s %s: %s\n", f.Level, f.Path, f.Msg)
	}
	if fails > 0 {
		return fmt.Errorf("%d regression(s) beyond tolerance (%d finding(s) total)", fails, len(findings))
	}
	fmt.Fprintf(out, "ok: %s within tolerance of %s (%d warning(s))\n", curPath, basePath, len(findings))
	return nil
}

// isPerfBaseline sniffs the harness perf schema by its "micro" key.
func isPerfBaseline(data []byte) bool {
	return strings.Contains(string(data), `"micro"`)
}

// allocCaps are absolute allocs/op ceilings for the hot span access
// paths, enforced independently of the baseline so a regressed baseline
// can never launder an allocation-diet regression through the relative
// gate.
var allocCaps = map[string]int64{
	"ReadRange/span":  24,
	"WriteRange/span": 38,
	// Diffs are flat: a scan into reused scratch plus the clone a
	// retained diff keeps is two allocations (Spans and Data), whatever
	// the run count.
	"MakeDiff/sparse": 2,
	"MakeDiff/dense":  2,
	// Diff wire codec: the encoder amortizes to a handful of buffer
	// growths; the decoder sizes Spans and Data exactly, one each.
	"DiffEncode/sparse": 4,
	"DiffEncode/dense":  4,
	"DiffDecode/sparse": 2,
	// memsim walks tag arrays allocated once per node: a whole-page
	// range and a full tag walk allocate nothing.
	"MemsimRange":  0,
	"MemsimRandom": 0,
}

// wireRatioCaps are absolute encoded/raw ceilings per diff wire pattern,
// enforced on the current baseline regardless of the committed one: the
// compression win is an acceptance property, not a relative drift.
var wireRatioCaps = map[string]float64{
	"sparse":  0.60,
	"dense":   1.02,
	"strided": 0.90,
}

// comparePerf diffs two harness perf baselines. Host wall-clock numbers
// are noisy, so ns/op drifts only warn; allocation counts and the
// determinism bits are exact properties of the code and fail hard.
func comparePerf(base, cur []byte, tol float64) ([]metrics.Finding, error) {
	b, err := harness.ReadPerfBaseline(base)
	if err != nil {
		return nil, fmt.Errorf("baseline: %v", err)
	}
	c, err := harness.ReadPerfBaseline(cur)
	if err != nil {
		return nil, fmt.Errorf("current: %v", err)
	}

	var findings []metrics.Finding
	if !c.Grid.Identical {
		findings = append(findings, metrics.Finding{
			Level: metrics.LevelFail, Path: "grid/results_identical",
			Msg: "parallel grid results differ from sequential (determinism violation)",
		})
	}
	if c.Engine.Workers > 0 && !c.Engine.Identical {
		findings = append(findings, metrics.Finding{
			Level: metrics.LevelFail, Path: "engine/results_identical",
			Msg: "engine results differ across worker counts (determinism violation)",
		})
	}
	baseMicro := make(map[string]harness.MicroResult, len(b.Micro))
	for _, m := range b.Micro {
		baseMicro[m.Name] = m
	}
	for _, m := range c.Micro {
		bm, ok := baseMicro[m.Name]
		if !ok {
			// New benchmarks have no baseline yet; nothing to gate.
			continue
		}
		if m.AllocsOp > bm.AllocsOp {
			findings = append(findings, metrics.Finding{
				Level: metrics.LevelFail, Path: "micro/" + m.Name + "/allocs_op",
				Base: bm.AllocsOp, Cur: m.AllocsOp,
				Msg: fmt.Sprintf("allocs/op grew %d -> %d", bm.AllocsOp, m.AllocsOp),
			})
		}
		if cap, ok := allocCaps[m.Name]; ok && m.AllocsOp > cap {
			findings = append(findings, metrics.Finding{
				Level: metrics.LevelFail, Path: "micro/" + m.Name + "/allocs_cap",
				Base: cap, Cur: m.AllocsOp,
				Msg: fmt.Sprintf("allocs/op %d exceeds hard cap %d", m.AllocsOp, cap),
			})
		}
		if bm.NsOp > 0 && m.NsOp > bm.NsOp*(1+tol) {
			findings = append(findings, metrics.Finding{
				Level: metrics.LevelWarn, Path: "micro/" + m.Name + "/ns_op",
				Base: int64(bm.NsOp), Cur: int64(m.NsOp),
				Msg: fmt.Sprintf("ns/op %.1f -> %.1f (+%.0f%%, tol %.0f%%)",
					bm.NsOp, m.NsOp, 100*(m.NsOp/bm.NsOp-1), 100*tol),
			})
		}
	}
	for _, m := range b.Micro {
		found := false
		for _, cm := range c.Micro {
			if cm.Name == m.Name {
				found = true
				break
			}
		}
		if !found {
			findings = append(findings, metrics.Finding{
				Level: metrics.LevelFail, Path: "micro/" + m.Name,
				Msg: "benchmark missing from current baseline",
			})
		}
	}
	for _, dw := range c.DiffWire {
		if cap, ok := wireRatioCaps[dw.Pattern]; ok && dw.Ratio > cap {
			findings = append(findings, metrics.Finding{
				Level: metrics.LevelFail, Path: "diff_wire/" + dw.Pattern + "/ratio",
				Msg: fmt.Sprintf("encoded/raw ratio %.3f exceeds hard cap %.2f (%d/%d bytes)",
					dw.Ratio, cap, dw.EncodedBytes, dw.RawBytes),
			})
		}
	}
	for _, dw := range b.DiffWire {
		found := false
		for _, cw := range c.DiffWire {
			if cw.Pattern == dw.Pattern {
				found = true
				break
			}
		}
		if !found {
			findings = append(findings, metrics.Finding{
				Level: metrics.LevelFail, Path: "diff_wire/" + dw.Pattern,
				Msg: "wire pattern missing from current baseline",
			})
		}
	}
	return findings, nil
}
