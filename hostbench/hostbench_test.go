package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/rt"
	"cvm/internal/transport"
)

// TestTracedRunNeutral checks that the boundary wrappers (Worker,
// Interconnect and deliver closures, transport Conn) change nothing the
// program computes, and that on the simulator the reported shares add
// up: apps.self_s and core.dsm_s partition the traced run, and the
// handler and send shares lie inside the DSM's. TestAppTimeAttributed
// checks that the split puts time in the right share. On rt only the
// checksum is deterministic: its message counts depend on how the
// threads interleave, traced or not.
func TestTracedRunNeutral(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain := execute(w, apps.SizeTest, kindPlain, 0, maxSpans)
			traced := execute(w, apps.SizeTest, kindSpans, 1, maxSpans)
			if plain.err != nil || traced.err != nil {
				t.Fatalf("plain: %v, traced: %v", plain.err, traced.err)
			}
			if err := sameOutputs(plain.check, traced.check); err != nil {
				t.Errorf("traced run: %v", err)
			}
			if !w.real && !reflect.DeepEqual(plain.counted, traced.counted) {
				t.Errorf("counted metrics differ:\nplain  %v\ntraced %v", plain.counted, traced.counted)
			}
			if traced.layers["apps.worker_calls"] == 0 || len(traced.spans) == 0 {
				t.Errorf("traced run recorded no calls or spans: %v", traced.layers)
			}
			for k, v := range traced.layers {
				if v < 0 {
					t.Errorf("%s = %v, want ≥ 0", k, v)
				}
			}
			if w.real {
				return
			}
			run := traced.run.Seconds()
			sum := traced.layers["apps.self_s"] + traced.layers["core.dsm_s"]
			if math.Abs(sum-run) > splitTolerance*run {
				t.Errorf("apps.self_s + core.dsm_s = %v s, traced run_s = %v s", sum, run)
			}
			if traced.layers["core.handler_s"]+traced.layers["netsim.send_s"] > traced.layers["core.dsm_s"] {
				t.Errorf("handler and send time exceed the DSM's share: %v", traced.layers)
			}
		})
	}
}

// spin busy-waits for d of wall time.
func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
	}
}

// spinApp is a tiny application whose code between Worker calls spins
// for a known time: each thread spins for spinFor before each of
// spinCalls barriers.
const (
	spinCalls = 20
	spinFor   = 2 * time.Millisecond
)

func spinMain(w cvm.Worker) {
	for i := 0; i < spinCalls; i++ {
		spin(spinFor)
		w.Barrier(0)
	}
}

// TestAppTimeAttributed checks the traced split against time known in
// advance: every thread's spinning must land in apps.self_s, and on the
// simulator none of it in core.dsm_s.
func TestAppTimeAttributed(t *testing.T) {
	const nodes, threads = 2, 2
	want := (nodes * threads * spinCalls * spinFor).Seconds()

	c, err := cvm.New(cvm.DefaultConfig(nodes, threads))
	if err != nil {
		t.Fatal(err)
	}
	tr := newSimTracer(nodes*threads, 0, maxSpans)
	sys := c.System()
	if err := sys.SetInterconnect(&tracedNet{Interconnect: sys.Interconnect(), tr: tr}); err != nil {
		t.Fatal(err)
	}
	tr.start(time.Now())
	if _, err := c.Run(tr.wrapMain(spinMain)); err != nil {
		t.Fatal(err)
	}
	tr.finish(time.Now())
	m := tr.metrics(false)
	if m["apps.self_s"] < want {
		t.Errorf("sim: apps.self_s = %v s, the threads spun for %v s", m["apps.self_s"], want)
	}
	if m["core.dsm_s"] >= want/2 {
		t.Errorf("sim: core.dsm_s = %v s holds spinning time (spun %v s)", m["core.dsm_s"], want)
	}
	if m["core.sync_calls"] != nodes*threads*spinCalls {
		t.Errorf("sim: core.sync_calls = %v, want %d", m["core.sync_calls"], nodes*threads*spinCalls)
	}

	rtr := newRTTracer(0, maxSpans)
	conns := transport.NewLoopback(nodes)
	errs := make(chan error, nodes)
	rtr.start(time.Now())
	for i := 0; i < nodes; i++ {
		rc, err := rt.NewCluster(rt.DefaultConfig(nodes, threads))
		if err != nil {
			t.Fatal(err)
		}
		go func(i int) {
			_, err := rc.RunNode(rtr.wrapConn(conns[i]), rtr.wrapMain(spinMain))
			errs <- err
		}(i)
	}
	for i := 0; i < nodes; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	rm, _, _ := rtr.metrics()
	if rm["apps.self_s"] < want {
		t.Errorf("rt: apps.self_s = %v s, the threads spun for %v s", rm["apps.self_s"], want)
	}
	if rm["core.sync_calls"] != nodes*threads*spinCalls {
		t.Errorf("rt: core.sync_calls = %v, want %d", rm["core.sync_calls"], nodes*threads*spinCalls)
	}
}

// splitTolerance is the relative gap allowed between the traced run_s
// and the sum of its application and DSM shares.
const splitTolerance = 1e-6

// TestMetricNamesMatchBenchmark checks that each mode prints exactly
// the metrics BENCHMARK.json declares, with the declared units.
func TestMetricNamesMatchBenchmark(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
		Workload []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workload {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, have)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := measure(w, apps.SizeTest, 1, time.Nanosecond, traced, os.Stderr)
			if err != nil {
				t.Fatal(err)
			}
			s := res.summary(traced)
			if !s.Correct || s.Attempted == 0 {
				t.Errorf("%s traced=%v: %+v", w.name, traced, s)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			got := map[string]string{}
			for k, m := range s.Metrics {
				got[k] = m.Unit
			}
			exp := map[string]string{}
			for _, m := range want {
				exp[m.Name] = m.Unit
			}
			if !reflect.DeepEqual(got, exp) {
				t.Errorf("%s traced=%v metrics:\ngot  %v\nwant %v", w.name, traced, sortedKeys(got), sortedKeys(exp))
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k+" "+v)
	}
	sort.Strings(out)
	return out
}

func TestBucketOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"cvm/internal/sim.(*Task).handoff"}, "sim"},
		{[]string{"cvm.(*F64Array).Get", "main.x"}, "core"},
		{[]string{"cvm/internal/core.(*Thread).ReadF64"}, "core"},
		{[]string{"cvm/internal/memsim.(*assoc).touch"}, "memsim"},
		{[]string{"runtime.memmove", "cvm/internal/core.bytesToU64"}, "runtime_memmove"},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "cvm/internal/core.x"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready", "runtime.chansend"}, "runtime_sched"},
		{[]string{"runtime.chanrecv1", "cvm/internal/sim.(*Task).handoff"}, "runtime_sched"},
		{[]string{"runtime.asyncPreempt", "cvm/internal/core.EncodeRuns"}, "core"},
		{[]string{"runtime.nanotime1"}, "runtime_other"},
		{[]string{"sync.(*Mutex).Lock", "cvm/internal/rt.x"}, "other"},
		{nil, "runtime_other"},
	} {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var spinSink float64

// TestCPUProfileDecode profiles a busy loop and checks the hand decoder
// finds its samples.
func TestCPUProfileDecode(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profile unavailable:", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
	pprof.StopCPUProfile()
	got, err := cpuByBucket(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range got {
		total += ns
	}
	if total == 0 {
		t.Fatalf("no samples decoded: %v", got)
	}
	if len(got) != len(cpuBuckets) {
		t.Errorf("buckets %v, want exactly %v", got, cpuBuckets)
	}
}
