// Command cvm-bench regenerates the paper's tables and figures on the
// simulated cluster.
//
// Usage:
//
//	cvm-bench -experiment all -size small
//	cvm-bench -experiment fig1
//	cvm-bench -experiment table5 -size paper
//	cvm-bench -experiment fig1 -size test -metrics profile.json -report
//
// Experiments: costs, fig1, table2, table3, fig2, table4, table5, ablation, protocols, adapt, all.
//
// Grid cells are independent simulations and run concurrently; -parallel N
// caps the worker count (default: all CPUs; 1 reproduces the sequential
// baseline). -metrics/-report attach a metrics registry to every cell of
// the Figure 1 / Tables 2-3 / Figure 2 grid and emit the aggregated
// profile (cell snapshots merge in deterministic grid order, so the
// report is byte-identical at any -parallel). The perf experiment
// benchmarks the harness itself and writes a machine-readable baseline:
//
//	cvm-bench -experiment perf -json BENCH_harness.json
//
// -cpuprofile and -memprofile write pprof profiles of the host process
// over the whole run, for `go tool pprof`.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/harness"
	"cvm/internal/hostprof"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("cvm-bench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all",
			"experiment to regenerate: costs, fig1, table2, table3, fig2, table4, table5, ablation, protocols, adapt, perf, scaleout, all")
		size     = fs.String("size", "small", "input scale: test, small, paper")
		quiet    = fs.Bool("q", false, "suppress progress output")
		nodes16  = fs.Bool("with16", true, "include 16-node runs in table4")
		parallel = fs.Int("parallel", 0, "worker goroutines for independent runs (0 = all CPUs, 1 = sequential)")
		jsonPath = fs.String("json", "BENCH_harness.json", "output path for the perf experiment's JSON baseline")

		scaleNodes = fs.String("scale-nodes", "8,64,256,1024",
			"comma-separated node counts for the scaleout experiment")
		scaleJSON = fs.String("scale-json", "BENCH_scaleout.json",
			"output path for the scaleout experiment's JSON baseline")
		scaleWorkers = fs.Int("scale-workers", 4,
			"DES engine worker threads for the scaleout experiment (>= 1; results are identical at any count)")

		metricsOut  = fs.String("metrics", "", "write the aggregated metrics JSON report of the fig1/table2/table3/fig2 grid to this file")
		showReport  = fs.Bool("report", false, "print the aggregated metrics profile of the fig1/table2/table3/fig2 grid")
		metricsBin  = fs.Duration("metrics-interval", 0, "utilization-timeline bin width in virtual time (0 = default 10ms)")
		metricsTopN = fs.Int("metrics-top", 10, "rows kept in the hot-page and hot-lock tables")
	)
	prof := hostprof.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, stop()) }()
	if *metricsBin < 0 {
		return fmt.Errorf("-metrics-interval must be >= 0, got %v", *metricsBin)
	}
	if *scaleWorkers < 1 {
		return fmt.Errorf("-scale-workers must be >= 1, got %d", *scaleWorkers)
	}
	if *metricsTopN < 1 {
		return fmt.Errorf("-metrics-top must be >= 1, got %d", *metricsTopN)
	}

	sz, err := apps.ParseSize(*size)
	if err != nil {
		return err
	}
	var progress io.Writer
	if !*quiet {
		progress = os.Stderr
	}

	want := func(name string) bool { return *experiment == name || *experiment == "all" }

	wantMetrics := *metricsOut != "" || *showReport
	gridWanted := want("fig1") || want("table2") || want("table3") || want("fig2")
	if wantMetrics && !gridWanted {
		return fmt.Errorf("-metrics/-report apply to the fig1/table2/table3/fig2 grid; -experiment %s does not run it", *experiment)
	}

	if want("costs") {
		c, err := harness.MeasureCosts()
		if err != nil {
			return err
		}
		harness.WriteCosts(out, c)
		fmt.Fprintln(out)
	}

	// Figure 1, Tables 2-3 and Figure 2 share one grid over 4 and 8
	// nodes at 1-4 threads.
	if gridWanted {
		var res harness.Results
		if wantMetrics {
			var snap *cvm.MetricsSnapshot
			res, snap, err = harness.RunGridMetricsParallel(harness.AppOrder, sz,
				harness.GridShapes([]int{4, 8}, harness.ThreadLevels), progress, *parallel,
				cvm.Time((*metricsBin).Nanoseconds()))
			if err != nil {
				return err
			}
			rep := cvm.NewMetricsReport("grid",
				fmt.Sprintf("experiment=%s size=%s", *experiment, *size), snap, *metricsTopN)
			if err := emitGridMetrics(out, rep, *metricsOut, *showReport); err != nil {
				return err
			}
		} else {
			res, err = harness.RunGridParallel(harness.AppOrder, sz,
				harness.GridShapes([]int{4, 8}, harness.ThreadLevels), progress, *parallel)
			if err != nil {
				return err
			}
		}
		if want("fig1") {
			harness.WriteFigure1(out, res, harness.AppOrder, []int{4, 8}, harness.ThreadLevels)
			fmt.Fprintln(out)
		}
		if want("table2") {
			harness.WriteTable2(out, res, harness.AppOrder, 8, harness.ThreadLevels)
			fmt.Fprintln(out)
		}
		if want("table3") {
			harness.WriteTable3(out, res, harness.AppOrder, 8, harness.ThreadLevels)
			fmt.Fprintln(out)
		}
		if want("fig2") {
			harness.WriteFigure2(out, res, harness.AppOrder, 8, harness.ThreadLevels)
			fmt.Fprintln(out)
		}
	}

	if want("table4") {
		nodeCounts := []int{4, 8}
		if *nodes16 {
			nodeCounts = append(nodeCounts, 16)
		}
		// Barnes is excluded in the paper ("will not run with our
		// default input size on sixteen processors").
		names := []string{"fft", "ocean", "sor", "swm750", "watersp", "waternsq"}
		res, err := harness.RunGridParallel(names, sz,
			harness.GridShapes(nodeCounts, []int{1, 2, 4}), progress, *parallel)
		if err != nil {
			return err
		}
		harness.WriteTable4(out, res, names, nodeCounts, []int{2, 4})
		fmt.Fprintln(out)
	}

	if want("ablation") {
		for _, ab := range []struct {
			title string
			run   func(string, apps.Size) ([]harness.AblationRow, error)
		}{
			{"thread-switch cost sweep (paper limiting factor #5)", harness.AblationSwitchCost},
			{"wire latency sweep (the multi-threading premise)", harness.AblationWireLatency},
		} {
			rows, err := ab.run("waternsq", sz)
			if err != nil {
				return err
			}
			harness.WriteAblation(out, ab.title, rows)
			fmt.Fprintln(out)
		}
		sched, err := harness.AblationScheduler("sor", sz)
		if err != nil {
			return err
		}
		harness.WriteSchedulerAblation(out, sched)
		fmt.Fprintln(out)
	}

	if want("protocols") {
		rows, err := harness.CompareProtocols(harness.AppOrder, sz, 8, 2, progress, *parallel)
		if err != nil {
			return err
		}
		harness.WriteProtocols(out, rows, 8, 2)
		fmt.Fprintln(out)
	}

	if want("adapt") {
		rows, err := harness.CompareAdaptive(harness.AppOrder, sz, 8, 2, progress, *parallel)
		if err != nil {
			return err
		}
		harness.WriteAdaptive(out, rows, 8, 2)
		fmt.Fprintln(out)
	}

	if *experiment == "perf" {
		return runPerf(out, sz, *parallel, *jsonPath, progress)
	}

	// The scaleout study is deliberately not part of "all": its 1024-node
	// points dominate the runtime of everything else combined.
	if *experiment == "scaleout" {
		nodeCounts, err := parseNodeList(*scaleNodes)
		if err != nil {
			return err
		}
		study, err := harness.RunScaleStudy(nodeCounts, 1, sz,
			[]bool{false, true}, *scaleWorkers, progress)
		if err != nil {
			return err
		}
		f, err := os.Create(*scaleJSON)
		if err != nil {
			return err
		}
		if err := harness.WriteScaleBaseline(f, study); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		harness.WriteScaleStudy(out, study)
		fmt.Fprintf(out, "scaleout: baseline written to %s\n", *scaleJSON)
		return nil
	}

	if want("table5") {
		rows, err := harness.Table5(sz, 8, harness.ThreadLevels, progress, *parallel)
		if err != nil {
			return err
		}
		harness.WriteTable5(out, rows)
		fmt.Fprintln(out)
	}

	return nil
}

// parseNodeList parses a comma-separated list of node counts.
func parseNodeList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(part, "%d", &n); err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scale-nodes entry %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-scale-nodes is empty")
	}
	return out, nil
}

// emitGridMetrics writes the aggregated grid profile as requested.
func emitGridMetrics(out io.Writer, rep *cvm.MetricsReport, jsonPath string, show bool) error {
	if show {
		if err := rep.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics report to %s\n\n", jsonPath)
	}
	return nil
}
