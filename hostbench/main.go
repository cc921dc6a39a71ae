// Command hostbench is the repository's host-time benchmark: it measures
// what producing the reproduced results costs on the host, end to end
// with tracing off, and split by layer in a separate traced run. See
// README.md for the workloads, metrics and how to read them.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash hostbench/run.sh --workload sim-ocean --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cvm"
	"cvm/internal/apps"
)

const (
	// setupSamples is the number of set-ups timed before each execution
	// and after the last; setup_s is their median over the invocation
	// (see timeSetups).
	setupSamples = 300
	// maxSpans caps the spans one traced execution keeps in memory.
	maxSpans = 100000
	// artifactDir receives the traced run's spans and CPU table.
	artifactDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: sim-sor, sim-ocean or rt-swm")
	seed := fl.Int64("seed", 1, "run-order seed (application inputs are fixed; see README.md)")
	seconds := fl.Int("seconds", 40, "measurement budget in seconds")
	traceOn := fl.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end figures")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "hostbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	env := stamp(w, *seed)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	res, err := measure(w, apps.SizePaper, *seed, time.Duration(*seconds)*time.Second, *traceOn == 1, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	if *traceOn == 1 {
		path := filepath.Join(artifactDir, "hostbench-trace-"+w.name+".json")
		if err := writeArtifact(path, env, res); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans and cpu table written to", path)
	}
	out, err := json.Marshal(res.summary(*traceOn == 1))
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// envStamp records where a result was measured.
type envStamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
	Engine     string `json:"engine"`
}

func stamp(w workload, seed int64) envStamp {
	e := envStamp{
		Workload: w.name, Seed: seed,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: gitCommit("."),
		Engine: "real runtime (internal/rt)",
	}
	if !w.real {
		e.Engine = "sequential"
		if n := cvm.DefaultConfig(w.nodes, w.threads).EngineWorkers; n > 0 {
			e.Engine = fmt.Sprintf("windowed, %d OS workers", n)
		}
	}
	return e
}

// gitCommit reads HEAD from a .git directory under root, or reports
// "unknown" (a source checkout without history).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}

// result is everything one invocation measured.
type result struct {
	w      workload
	execs  []execution
	setups []time.Duration // setup_s samples
	failed int
}

// measure runs the workload's application in a batch closed loop until
// the budget is spent: each execution starts when the previous one ends,
// and no execution starts that the longest one so far says would end
// past the budget. A traced invocation runs rounds of a plain, a
// span-traced and a profiled execution, in an order drawn from seed.
// The set-up samples are taken before each execution and after the
// last, so that they spread over the invocation like the executions do.
func measure(w workload, size apps.Size, seed int64, budget time.Duration, traced bool, log io.Writer) (*result, error) {
	res := &result{w: w}
	rng := rand.New(rand.NewSource(seed))
	minExecs := 1 // a traced invocation completes its first round
	var round []kind
	begin := time.Now()
	var longest time.Duration
	var ref []float64
	for i := 0; ; i++ {
		k := kindPlain
		if traced {
			if len(round) == 0 {
				round = make([]kind, 3)
				for j, p := range rng.Perm(3) {
					round[j] = kind(p)
				}
			}
			k, round = round[0], round[1:]
			minExecs = 3
		}
		t := time.Now()
		setups, err := timeSetups(w, size, setupSamples)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, setups...)
		ex := execute(w, size, k, int32(i), maxSpans)
		if d := time.Since(t); d > longest {
			longest = d
		}
		if ex.err == nil {
			if ref == nil {
				ref = ex.check
			} else if err := sameOutputs(ref, ex.check); err != nil {
				ex.err = err
			}
		}
		if ex.err != nil {
			res.failed++
			fmt.Fprintf(log, "hostbench: %s execution %d failed: %v\n", w.name, i, ex.err)
		}
		res.execs = append(res.execs, ex)
		fmt.Fprintf(log, "hostbench: %s execution %d (%s): run %v, set-ups before it %v (median)\n", w.name, i, kindNames[k], ex.run, medianDuration(setups))
		if i+1 >= minExecs && time.Since(begin)+longest > budget {
			break
		}
	}
	setups, err := timeSetups(w, size, setupSamples)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res.setups = append(res.setups, setups...)
	if len(res.ok(kindPlain)) == 0 {
		return nil, errors.New("no execution succeeded; see the errors above")
	}
	return res, nil
}

// sameOutputs compares an execution's checksum and counted outputs
// with the invocation's first successful execution.
func sameOutputs(ref, got []float64) error {
	if len(ref) != len(got) {
		return fmt.Errorf("drift: %d outputs, first execution had %d", len(got), len(ref))
	}
	for i := range ref {
		if ref[i] != got[i] {
			what := "checksum"
			if i > 0 {
				what = fingerprintNames[i-1]
			}
			return fmt.Errorf("drift: %s %v, first execution had %v", what, got[i], ref[i])
		}
	}
	return nil
}

// ok returns the successful executions of kind k.
func (r *result) ok(k kind) []execution {
	var out []execution
	for _, ex := range r.execs {
		if ex.err == nil && ex.kind == k {
			out = append(out, ex)
		}
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd reports the end-to-end metrics from the plain executions.
// max_heap_mb is the highest of their peaks, not the median: the live
// heap is known only as each collection ends, so an execution's peak
// falls short of the true one by however far the last collection
// before the peak came from it, and the highest is the closest.
func (r *result) endToEnd() map[string]metric {
	plain := r.ok(kindPlain)
	return map[string]metric{
		"run_s":       {median(each(plain, func(e execution) float64 { return e.run.Seconds() })), "s"},
		"setup_s":     {medianDuration(r.setups).Seconds(), "s"},
		"msgs_per_s":  {median(each(plain, func(e execution) float64 { return float64(e.msgs) / e.run.Seconds() })), "1/s"},
		"alloc_mb":    {median(each(plain, func(e execution) float64 { return float64(e.mem.allocBytes) / 1e6 })), "MB"},
		"max_heap_mb": {maxOf(each(plain, func(e execution) float64 { return float64(e.mem.maxLive) / 1e6 })), "MB"},
	}
}

// perLayer lists every per-layer metric with its unit; init appends the
// cpu.* buckets. Workloads that do not run a layer report 0 for it.
var perLayer = []struct{ name, unit string }{
	{"apps.self_s", "s"}, {"apps.worker_calls", "count"},
	{"core.access_calls", "count"}, {"core.access_fast_ns", "ns"}, {"core.access_blocked_calls", "count"},
	{"core.sync_calls", "count"}, {"core.dsm_s", "s"},
	{"core.handler_calls.barrier", "count"}, {"core.handler_calls.lock", "count"}, {"core.handler_calls.diff", "count"},
	{"core.handler_s", "s"},
	{"core.remote_faults", "count"}, {"core.remote_locks", "count"}, {"core.diffs_created", "count"},
	{"core.diffs_used", "count"}, {"core.thread_switches", "count"},
	{"sim.handoffs", "count"},
	{"memsim.dcache_misses", "count"}, {"memsim.dtlb_misses", "count"}, {"memsim.itlb_misses", "count"},
	{"netsim.send_calls", "count"}, {"netsim.send_s", "s"}, {"netsim.msgs", "count"}, {"netsim.bytes", "bytes"},
	{"go.mallocs", "count"}, {"go.gc_cycles", "count"},
	{"rt.access_s", "s"}, {"rt.sync_s", "s"},
	{"transport.send_calls", "count"}, {"transport.send_s", "s"}, {"transport.recv_calls", "count"},
	{"transport.recv_wait_s", "s"}, {"transport.msgs", "count"}, {"transport.bytes", "bytes"},
	{"virt_s", "sim_s"}, {"virt.user_s", "sim_s"}, {"virt.fault_wait_s", "sim_s"},
	{"virt.lock_wait_s", "sim_s"}, {"virt.barrier_wait_s", "sim_s"},
	{"trace.overhead_frac", "frac"}, {"fail_frac", "frac"},
}

func init() {
	for _, b := range cpuBuckets {
		perLayer = append(perLayer, struct{ name, unit string }{"cpu." + b, "s"})
	}
}

// intervalMetrics come from the one-layer-at-a-time interval rule; they
// are omitted, not zeroed, when the simulator runs several OS workers.
var intervalMetrics = map[string]bool{
	"apps.self_s": true, "core.dsm_s": true, "core.handler_s": true, "netsim.send_s": true,
	"core.access_fast_ns": true, "core.access_blocked_calls": true, "sim.handoffs": true,
}

// layers reports the per-layer metrics: traced figures are medians over
// the span-traced executions, counted ones medians over the plain
// executions (on the simulator every execution repeats them exactly),
// CPU buckets are CPU seconds per profiled execution.
func (r *result) layers() map[string]metric {
	w := r.w
	plain, spans, profiled := r.ok(kindPlain), r.ok(kindSpans), r.ok(kindProfile)
	vals := map[string]float64{}
	for _, l := range perLayer {
		if !intervalMetrics[l.name] || w.real {
			vals[l.name] = 0
		}
	}
	counted := map[string][]float64{}
	for _, ex := range plain {
		for k, v := range ex.counted {
			counted[k] = append(counted[k], v)
		}
	}
	for k, vs := range counted {
		vals[k] = median(vs)
	}
	traced := map[string][]float64{}
	for _, ex := range spans {
		for k, v := range ex.layers {
			traced[k] = append(traced[k], v)
		}
	}
	for k, vs := range traced {
		vals[k] = median(vs)
	}
	vals["go.mallocs"] = median(each(plain, func(e execution) float64 { return float64(e.mem.mallocs) }))
	vals["go.gc_cycles"] = median(each(plain, func(e execution) float64 { return float64(e.mem.gcCycles) }))
	if len(spans) > 0 {
		vals["trace.overhead_frac"] = median(each(spans, func(e execution) float64 { return e.run.Seconds() }))/
			median(each(plain, func(e execution) float64 { return e.run.Seconds() })) - 1
	}
	vals["fail_frac"] = float64(r.failed) / float64(len(r.execs))
	if len(profiled) > 0 {
		for b, ns := range cpuTotals(profiled) {
			vals["cpu."+b] = float64(ns) / 1e9 / float64(len(profiled))
		}
	}
	out := map[string]metric{}
	units := map[string]string{}
	for _, l := range perLayer {
		units[l.name] = l.unit
	}
	for k, v := range vals {
		if u, ok := units[k]; ok {
			out[k] = metric{v, u}
		}
	}
	return out
}

func cpuTotals(profiled []execution) map[string]int64 {
	tot := map[string]int64{}
	for _, b := range cpuBuckets {
		tot[b] = 0
	}
	for _, ex := range profiled {
		for b, ns := range ex.cpu {
			tot[b] += ns
		}
	}
	return tot
}

func (r *result) summary(traced bool) summary {
	s := summary{Correct: r.failed == 0, Attempted: len(r.execs), Failed: r.failed}
	if traced {
		s.Metrics = r.layers()
	} else {
		s.Metrics = r.endToEnd()
	}
	return s
}

func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(each(ds, func(d time.Duration) float64 { return float64(d) })))
}

func each[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
