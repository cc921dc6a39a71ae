// Command cvm-trace runs one application with protocol event tracing
// enabled, exports the trace as Chrome trace-event JSON (loadable in
// Perfetto or chrome://tracing), and optionally prints a latency report
// reproducing the paper's §4.1 calibration numbers from the traced
// events alone.
//
// Usage:
//
//	cvm-trace -app sor -nodes 8 -threads 2 -out trace.json
//	cvm-trace -app waternsq -nodes 8 -threads 4 -report
//	cvm-trace -app fft -nodes 4 -threads 2 -limit 100000 -out fft.json -report
//
// The exported JSON has one process per node; track 0 is protocol
// (handler) context and tracks 1..T are the node's application threads.
// Thread switches are drawn as flow arrows, remote faults and lock
// acquires as spans, messages as flow arrows between nodes.
//
// -faults injects a deterministic fault schedule; the trace then also
// shows injected drops/duplicates (fault-inject category) and the
// transport's retransmissions and duplicate suppressions. -check
// additionally attaches the protocol invariant checker and fails the
// run on any violation.
//
// -cpuprofile and -memprofile write pprof profiles of the host process
// (the simulator's own cost), for `go tool pprof`.
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
	"cvm/internal/check"
	"cvm/internal/hostprof"
	"cvm/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cvm-trace:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("cvm-trace", flag.ContinueOnError)
	var (
		appName = fs.String("app", "sor", "application: "+strings.Join(apps.Names(), ", "))
		nodes   = fs.Int("nodes", 8, "number of nodes (processors)")
		threads = fs.Int("threads", 2, "application threads per node")
		size    = fs.String("size", "test", "input scale: test, small, paper")
		outPath = fs.String("out", "", "write Chrome trace-event JSON to this file")
		report  = fs.Bool("report", false, "print the latency report (p50/p95/p99 per event class)")
		limit   = fs.Int("limit", 0, "per-node event ring bound (0 = unbounded; oldest events drop first)")

		engineWorkers = fs.Int("engine-workers", 1, "OS worker threads the simulator's DES engine runs nodes on (>= 1; the trace is identical at any count)")

		faults    = fs.String("faults", "", "deterministic fault spec, e.g. 'drop=0.01,dup=0.001' (injected events appear in the trace)")
		faultSeed = fs.Uint64("fault-seed", 1, "fault-schedule seed (same spec + seed = same schedule, byte for byte)")
		checkRun  = fs.Bool("check", false, "attach the protocol invariant checker; any violation fails the run")
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
	if *limit < 0 {
		return fmt.Errorf("-limit must be >= 0, got %d", *limit)
	}
	if *nodes < 1 || *threads < 1 {
		return fmt.Errorf("-nodes and -threads must be >= 1, got %d and %d", *nodes, *threads)
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
	} else {
		seedSet := false
		fs.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "fault-seed" })
		if seedSet {
			return fmt.Errorf("-fault-seed needs -faults")
		}
	}

	if *outPath == "" && !*report {
		return fmt.Errorf("nothing to do: pass -out trace.json and/or -report")
	}
	sz, err := apps.ParseSize(*size)
	if err != nil {
		return err
	}

	rec := trace.NewRecorder(*nodes, *threads, *limit)
	cfg := cvm.DefaultConfig(*nodes, *threads)
	cfg.Tracer = rec
	cfg.Faults = fp
	cfg.EngineWorkers = *engineWorkers
	var chk *check.Checker
	if *checkRun {
		chk = check.New(*nodes, *threads)
		cfg.Tracer = trace.Tee(rec, chk)
	}
	st, err := apps.RunConfig(*appName, sz, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s on %d nodes x %d threads (%s input): %v steady-state wall time, %d events",
		*appName, *nodes, *threads, *size, st.Wall, rec.Len())
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(out, " (%d dropped by -limit %d)", d, *limit)
	}
	fmt.Fprintln(out)
	if fp != nil {
		fmt.Fprintf(out, "transport: %d retransmits, %d duplicates suppressed\n",
			st.Total.Retransmits, st.Total.DupsSuppressed)
	}
	if chk != nil {
		chk.Finish()
		if n := chk.Count(); n != 0 {
			var b strings.Builder
			chk.Report(&b)
			fmt.Fprint(out, b.String())
			return fmt.Errorf("invariant checker found %d violation(s)", n)
		}
		fmt.Fprintln(out, "invariant checker: no violations")
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(f, rec); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s (load at ui.perfetto.dev or chrome://tracing)\n", *outPath)
	}
	if *report {
		fmt.Fprintln(out)
		if err := trace.AnalyzeRecorder(rec).Write(out); err != nil {
			return err
		}
	}
	return nil
}
