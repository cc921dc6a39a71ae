// Command cvm-run executes one application of the paper's suite on a
// simulated CVM cluster and prints its statistics.
//
// Usage:
//
//	cvm-run -app sor -nodes 8 -threads 2 -size small
//	cvm-run -app sor -nodes 8 -threads 1,2,4 -parallel 3
//	cvm-run -app waternsq -nodes 4 -threads 2 -size test -report -metrics profile.json
//
// Applications: barnes, fft, ocean, sor, swm750, watersp, waternsq,
// waternsq-noopts, waternsq-localbarrier. Sizes: test, small, paper.
//
// -threads accepts a comma-separated list; the resulting configurations
// are independent simulations and run concurrently across -parallel
// worker goroutines (0 = all CPUs). Instrumented runs (-trace, -metrics,
// -metrics-csv, -report, -check) need a single -threads level; tracing,
// metrics and the invariant checker can be combined in one run.
//
// -faults injects deterministic network and node faults, e.g.
//
//	cvm-run -app sor -size test -faults 'drop=0.01,dup=0.001' -fault-seed 7
//
// The run must still verify against the sequential reference; the
// report gains a transport section (retransmits, suppressed duplicates).
// -check attaches the protocol invariant checker and fails the run on
// any violation.
//
// -transport selects the execution backend: "sim" (default) is the
// deterministic virtual-time simulator; "loopback" runs the same
// application on the real runtime (internal/rt) over an in-process
// channel transport in wall time. The loopback backend produces the
// same checksum as the simulator, and it supports -trace, -metrics,
// -metrics-csv and -report with wall-clock timestamps in place of
// virtual time (compare the two with cvm-metrics diff-backends). It
// has no virtual-time machinery beyond that: fault injection, -check,
// -metrics-interval, -engine-workers and thread sweeps stay
// simulator-only. For multi-process clusters over TCP, see cvm-node.
//
// -cpuprofile and -memprofile write pprof profiles of the host process
// (what the run costs this machine, not the virtual time it reports),
// for `go tool pprof`; they work with either backend.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/check"
	"cvm/internal/harness"
	"cvm/internal/hostprof"
	"cvm/internal/metrics"
	"cvm/internal/netsim"
	"cvm/internal/rt"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-run:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("cvm-run", flag.ContinueOnError)
	var (
		appName    = fs.String("app", "sor", "application: "+strings.Join(apps.Names(), ", "))
		nodes      = fs.Int("nodes", 8, "number of nodes (processors)")
		threads    = fs.String("threads", "1", "application threads per node (comma-separated list sweeps)")
		size       = fs.String("size", "small", "input scale: test, small, paper")
		parallel   = fs.Int("parallel", 0, "worker goroutines for a threads sweep (0 = all CPUs, 1 = sequential)")
		traceOut   = fs.String("trace", "", "record protocol events and write Chrome trace JSON to this file")
		traceLimit = fs.Int("trace-limit", 0, "per-node trace event ring bound (0 = unbounded)")

		metricsOut  = fs.String("metrics", "", "collect virtual-time metrics and write the JSON report to this file")
		metricsCSV  = fs.String("metrics-csv", "", "write the metrics report as CSV to this file")
		showReport  = fs.Bool("report", false, "print the human-readable metrics profile (histograms, hot pages/locks, timeline)")
		metricsBin  = fs.Duration("metrics-interval", 0, "utilization-timeline bin width in virtual time (0 = default 10ms)")
		metricsTopN = fs.Int("metrics-top", 10, "rows kept in the hot-page and hot-lock tables")

		engineWorkers = fs.Int("engine-workers", 1, "OS worker threads the simulator's DES engine runs nodes on (>= 1; results are identical at any count)")
		compressDiffs = fs.Bool("compress-diffs", false, "account diff messages at their compressed wire size (simulator only; the real transport always compresses)")
		adapt         = fs.Bool("adapt", false, "enable per-page adaptive coherence (invalidate/update and single-/multi-writer mode switching)")
		migrate       = fs.Bool("migrate", false, "enable affinity-driven thread migration (apps must be migration-safe; see -app docs)")

		faults    = fs.String("faults", "", "deterministic fault spec, e.g. 'drop=0.01,dup=0.001,reorder=0.005,jitter=100us,pause=1:5ms:2ms'")
		faultSeed = fs.Uint64("fault-seed", 1, "fault-schedule seed (same spec + seed = same schedule, byte for byte)")
		checkRun  = fs.Bool("check", false, "attach the protocol invariant checker; any violation fails the run")

		backend = fs.String("transport", "sim", "execution backend: sim (deterministic simulator) or loopback (real runtime, in-process)")
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
	set := map[string]bool{} // flags given on the command line
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *traceLimit < 0 {
		return fmt.Errorf("-trace-limit must be >= 0, got %d", *traceLimit)
	}
	if *metricsBin < 0 {
		return fmt.Errorf("-metrics-interval must be >= 0, got %v", *metricsBin)
	}
	if *metricsTopN < 1 {
		return fmt.Errorf("-metrics-top must be >= 1, got %d", *metricsTopN)
	}
	if *engineWorkers < 1 {
		return fmt.Errorf("-engine-workers must be >= 1, got %d", *engineWorkers)
	}
	var fp *cvm.FaultPlan
	if *faults != "" {
		var err error
		if fp, err = cvm.ParseFaults(*faults, *faultSeed); err != nil {
			return err
		}
	} else if set["fault-seed"] {
		return fmt.Errorf("-fault-seed needs -faults")
	}

	sz, err := apps.ParseSize(*size)
	if err != nil {
		return err
	}
	levels, err := parseThreadList(*threads)
	if err != nil {
		return err
	}

	opts := runOpts{
		app: *appName, size: sz, sizeName: *size,
		nodes: *nodes, threads: levels[0],
		traceOut: *traceOut, traceLimit: *traceLimit,
		metricsOut: *metricsOut, metricsCSV: *metricsCSV,
		report:      *showReport,
		wantMetrics: *metricsOut != "" || *metricsCSV != "" || *showReport,
		interval:    cvm.Time((*metricsBin).Nanoseconds()), topN: *metricsTopN,
		faults: fp, check: *checkRun, engineWorkers: *engineWorkers,
		compressDiffs: *compressDiffs, adapt: *adapt, migrate: *migrate,
	}
	switch *backend {
	case "sim":
	case "loopback":
		// The real runtime meters and traces in wall time, but it has no
		// simulated faults to inject, no DES engine to parallelize, no
		// virtual-time invariant checker, and no utilization timeline.
		// Reject those combinations rather than ignore them.
		if *checkRun {
			return fmt.Errorf("-check is the simulator's virtual-time invariant checker; drop it with -transport loopback")
		}
		if *metricsBin > 0 {
			return fmt.Errorf("-metrics-interval shapes the simulator's virtual-time timeline; drop it with -transport loopback")
		}
		if fp != nil {
			return fmt.Errorf("-transport loopback cannot inject simulated faults; drop -faults")
		}
		if set["engine-workers"] {
			return fmt.Errorf("-engine-workers tunes the simulator's DES engine; drop it with -transport loopback")
		}
		if *compressDiffs {
			return fmt.Errorf("-compress-diffs tunes the simulator's byte accounting; the real transport always compresses, drop it with -transport loopback")
		}
		if *adapt {
			return fmt.Errorf("-adapt tunes the simulator's coherence protocol; drop it with -transport loopback")
		}
		if *migrate {
			return fmt.Errorf("-migrate moves threads inside the simulator's scheduler; drop it with -transport loopback")
		}
		if len(levels) != 1 {
			return fmt.Errorf("-transport loopback needs a single -threads level, got %q", *threads)
		}
		return runLoopback(out, opts)
	default:
		return fmt.Errorf("-transport must be sim or loopback, got %q", *backend)
	}

	if *traceOut != "" || opts.wantMetrics || *checkRun {
		if len(levels) != 1 {
			return fmt.Errorf("-trace/-metrics/-report/-check need a single -threads level, got %q", *threads)
		}
		return runInstrumented(out, opts)
	}

	// The sweep's cells are independent simulations; fan them out over
	// the harness worker pool and print each report in thread order.
	// Faults, when requested, apply the one shared read-only plan to
	// every cell; each cell's schedule is keyed on its own simulation
	// state, so the sweep stays deterministic at any -parallel level.
	shapes := harness.GridShapes([]int{*nodes}, levels)
	ew, comp, ad, mig := *engineWorkers, *compressDiffs, *adapt, *migrate
	mut := func(_ harness.Key, cfg *cvm.Config) {
		cfg.Faults = fp
		cfg.EngineWorkers = ew
		cfg.CompressDiffs = comp
		cfg.Adapt = ad
		cfg.Migrate = mig
	}
	res, err := harness.RunGridConfig([]string{*appName}, sz, shapes, mut, nil, *parallel)
	if err != nil {
		return err
	}
	for i, t := range levels {
		st, ok := res[harness.Key{App: *appName, Nodes: *nodes, Threads: t}]
		if !ok {
			fmt.Fprintf(out, "%s does not support %d threads per node; skipped\n", *appName, t)
			continue
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := report(out, *appName, *nodes, t, *size, st); err != nil {
			return err
		}
		if fp != nil {
			if err := reportTransport(out, st); err != nil {
				return err
			}
		}
	}
	return nil
}

// runOpts parameterizes one single-level run on either backend:
// instrumented on the simulator, or on loopback, where runLoopback
// ignores the simulator-only knobs (run rejects them when set).
type runOpts struct {
	app      string
	size     apps.Size
	sizeName string
	nodes    int
	threads  int

	traceOut   string
	traceLimit int

	metricsOut  string
	metricsCSV  string
	report      bool
	wantMetrics bool
	interval    cvm.Time
	topN        int

	faults        *cvm.FaultPlan
	check         bool
	engineWorkers int
	compressDiffs bool
	adapt         bool
	migrate       bool
}

// instruments creates the run's trace recorder and metrics registry,
// each nil unless requested.
func (o runOpts) instruments() (*trace.Recorder, *metrics.Registry) {
	var rec *trace.Recorder
	if o.traceOut != "" {
		rec = trace.NewRecorder(o.nodes, o.threads, o.traceLimit)
	}
	var reg *metrics.Registry
	if o.wantMetrics {
		reg = metrics.NewRegistry()
		if o.interval > 0 {
			reg.SetInterval(o.interval)
		}
	}
	return rec, reg
}

// runInstrumented executes one simulation with tracing and/or metrics
// attached, prints the statistics, and writes the requested artifacts.
// Both instruments observe without advancing virtual time, so they
// compose without perturbing each other or the run.
func runInstrumented(out io.Writer, o runOpts) error {
	cfg := cvm.DefaultConfig(o.nodes, o.threads)
	cfg.Faults = o.faults
	cfg.EngineWorkers = o.engineWorkers
	cfg.CompressDiffs = o.compressDiffs
	cfg.Adapt = o.adapt
	cfg.Migrate = o.migrate
	rec, reg := o.instruments()
	if rec != nil {
		cfg.Tracer = rec
	}
	cfg.Metrics = reg
	var chk *check.Checker
	if o.check {
		chk = check.New(o.nodes, o.threads)
		if rec != nil {
			cfg.Tracer = trace.Tee(rec, chk)
		} else {
			cfg.Tracer = chk
		}
	}

	st, err := apps.RunConfig(o.app, o.size, cfg)
	if err != nil {
		return err
	}
	if err := report(out, o.app, o.nodes, o.threads, o.sizeName, st); err != nil {
		return err
	}
	if o.faults != nil {
		if err := reportTransport(out, st); err != nil {
			return err
		}
	}
	if chk != nil {
		chk.Finish()
		if n := chk.Count(); n != 0 {
			var b strings.Builder
			chk.Report(&b)
			fmt.Fprint(out, b.String())
			return fmt.Errorf("invariant checker found %d violation(s)", n)
		}
		fmt.Fprintln(out, "\ninvariant checker: no violations")
	}
	return writeArtifacts(out, o, rec, reg, nil)
}

// runLoopback executes one run on the real runtime over the in-process
// loopback transport and prints the wall-time report. The checksum
// still verifies against the sequential reference, and — by the
// transport-equivalence guarantee (DESIGN.md §11) — equals the
// simulator's bit for bit at the same configuration. With -metrics or
// -report the run collects the wall-clock protocol metrics into the
// simulator's report shape (plus a "real transport" section), so the
// two backends' profiles are directly comparable — see
// cvm-metrics diff-backends.
func runLoopback(out io.Writer, o runOpts) error {
	app, err := apps.New(o.app, o.size)
	if err != nil {
		return err
	}
	if !app.SupportsThreads(o.threads) {
		return fmt.Errorf("%s does not support %d threads per node", o.app, o.threads)
	}
	cfg := rt.DefaultConfig(o.nodes, o.threads)
	rec, reg := o.instruments()
	if rec != nil {
		cfg.Tracer = rec
	}
	cfg.Metrics = reg
	cl, err := rt.NewCluster(cfg)
	if err != nil {
		return err
	}
	if err := app.Setup(cl); err != nil {
		return err
	}
	res, err := cl.RunLoopback(app.Main)
	if err != nil {
		return err
	}
	if err := app.Check(); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s on %d nodes x %d threads (%s input) over loopback: result verified against sequential reference\n\n",
		o.app, o.nodes, o.threads, o.sizeName)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "wall time\t%v\n", res.Elapsed)
	fmt.Fprintf(tw, "checksum\t%v\n", app.Checksum())
	fmt.Fprintf(tw, "messages (barrier/lock/diff)\t%d / %d / %d\n",
		res.Net.Msgs[transport.ClassBarrier], res.Net.Msgs[transport.ClassLock],
		res.Net.Msgs[transport.ClassDiff])
	fmt.Fprintf(tw, "total messages\t%d\n", res.Net.TotalMsgs())
	fmt.Fprintf(tw, "bandwidth\t%d KB\n", res.Net.TotalBytes()/1024)
	if err := tw.Flush(); err != nil {
		return err
	}
	return writeArtifacts(out, o, rec, reg, rt.RealStats("loopback", o.nodes, res.Elapsed, res.Net))
}

// writeArtifacts writes a finished run's requested artifacts: the
// Chrome trace, then the metrics report as text, JSON and CSV. real,
// when non-nil, stamps the report as a wall-clock backend's.
func writeArtifacts(out io.Writer, o runOpts, rec *trace.Recorder, reg *metrics.Registry, real *metrics.RealStats) error {
	if rec != nil {
		if err := writeFileWith(o.traceOut, func(w io.Writer) error {
			return trace.WriteChrome(w, rec)
		}); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote %d trace events to %s (load at ui.perfetto.dev)\n", rec.Len(), o.traceOut)
	}

	if reg == nil {
		return nil
	}
	rep := metrics.NewReport(metrics.Meta{
		App:    o.app,
		Config: fmt.Sprintf("%dx%d size=%s", o.nodes, o.threads, o.sizeName),
	}, reg.Snapshot(), o.topN)
	rep.Real = real
	if o.report {
		fmt.Fprintln(out)
		if err := rep.WriteText(out); err != nil {
			return err
		}
	}
	if o.metricsOut != "" {
		if err := writeFileWith(o.metricsOut, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nwrote metrics report to %s\n", o.metricsOut)
	}
	if o.metricsCSV != "" {
		if err := writeFileWith(o.metricsCSV, rep.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote metrics CSV to %s\n", o.metricsCSV)
	}
	return nil
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseThreadList parses "1,2,4" into thread levels.
func parseThreadList(s string) ([]int, error) {
	var levels []int
	for _, part := range strings.Split(s, ",") {
		t, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || t < 1 {
			return nil, fmt.Errorf("bad -threads value %q", part)
		}
		levels = append(levels, t)
	}
	return levels, nil
}

// reportTransport prints the reliable-transport counters of a faulted
// run: how often the retransmission machinery fired and how many
// duplicate deliveries the dedupe layer absorbed.
func reportTransport(out io.Writer, st cvm.Stats) error {
	fmt.Fprintln(out)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "retransmits\t%d\n", st.Total.Retransmits)
	fmt.Fprintf(tw, "duplicates suppressed\t%d\n", st.Total.DupsSuppressed)
	return tw.Flush()
}

// report prints one run's statistics.
func report(out io.Writer, appName string, nodes, threads int, size string, st cvm.Stats) error {
	fmt.Fprintf(out, "%s on %d nodes x %d threads (%s input): result verified against sequential reference\n\n",
		appName, nodes, threads, size)

	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "steady-state wall time\t%v\n", st.Wall)
	fmt.Fprintf(tw, "user time (all nodes)\t%v\n", st.Total.UserTime)
	fmt.Fprintf(tw, "barrier wait\t%v\n", st.Total.BarrierWait)
	fmt.Fprintf(tw, "fault wait\t%v\n", st.Total.FaultWait)
	fmt.Fprintf(tw, "lock wait\t%v\n", st.Total.LockWait)
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "thread switches\t%d\n", st.Total.ThreadSwitches)
	fmt.Fprintf(tw, "remote faults\t%d\n", st.Total.RemoteFaults)
	fmt.Fprintf(tw, "remote locks\t%d\n", st.Total.RemoteLocks)
	fmt.Fprintf(tw, "outstanding faults\t%d\n", st.Total.OutstandingFaults)
	fmt.Fprintf(tw, "outstanding locks\t%d\n", st.Total.OutstandingLocks)
	fmt.Fprintf(tw, "block same page\t%d\n", st.Total.BlockSamePage)
	fmt.Fprintf(tw, "block same lock\t%d\n", st.Total.BlockSameLock)
	fmt.Fprintf(tw, "diffs created\t%d\n", st.Total.DiffsCreated)
	fmt.Fprintf(tw, "diffs used\t%d\n", st.Total.DiffsUsed)
	// The adaptation section appears only when the adaptive protocol or
	// thread migration actually acted; plain runs keep the classic shape.
	if st.Total.ModeChanges > 0 || st.Total.Migrations > 0 {
		fmt.Fprintln(tw)
		fmt.Fprintf(tw, "mode changes\t%d\n", st.Total.ModeChanges)
		fmt.Fprintf(tw, "update pushes\t%d\n", st.Total.UpdatePushes)
		fmt.Fprintf(tw, "update hits\t%d\n", st.Total.UpdateHits)
		fmt.Fprintf(tw, "excl window closes\t%d\n", st.Total.ExclWindowCloses)
		fmt.Fprintf(tw, "full fetches\t%d\n", st.Total.FullFetches)
		fmt.Fprintf(tw, "thread migrations\t%d\n", st.Total.Migrations)
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "messages (barrier/lock/diff)\t%d / %d / %d\n",
		st.Net.Msgs[netsim.ClassBarrier], st.Net.Msgs[netsim.ClassLock],
		st.Net.Msgs[netsim.ClassDiff])
	if up, mg := st.Net.Msgs[netsim.ClassUpdate], st.Net.Msgs[netsim.ClassMigrate]; up > 0 || mg > 0 {
		fmt.Fprintf(tw, "messages (update/migrate)\t%d / %d\n", up, mg)
	}
	fmt.Fprintf(tw, "total messages\t%d\n", st.Net.TotalMsgs())
	fmt.Fprintf(tw, "bandwidth\t%d KB\n", st.Net.TotalBytes()/1024)
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "D-cache misses\t%d\n", st.MemTotal.DCacheMisses)
	fmt.Fprintf(tw, "D-TLB misses\t%d\n", st.MemTotal.DTLBMisses)
	fmt.Fprintf(tw, "I-TLB misses\t%d\n", st.MemTotal.ITLBMisses)
	return tw.Flush()
}
