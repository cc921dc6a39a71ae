package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/rt"
	"cvm/internal/transport"
)

// workload is one application on one backend at one cluster shape.
type workload struct {
	name           string
	app            string
	real           bool // internal/rt over the loopback transport, not the simulator
	nodes, threads int
}

var workloads = []workload{
	{name: "sim-sor", app: "sor", nodes: 8, threads: 4},
	{name: "sim-ocean", app: "ocean", nodes: 8, threads: 4},
	{name: "rt-swm", app: "swm750", real: true, nodes: 4, threads: 2},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// kind is what an execution measures besides its own timing.
type kind int

const (
	kindPlain   kind = iota // nothing: the end-to-end figures
	kindSpans               // boundary wrappers and spans
	kindProfile             // a CPU profile and nothing else
)

var kindNames = [...]string{kindPlain: "plain", kindSpans: "spans", kindProfile: "profile"}

// execution is the outcome of one application run: set-up, run, check.
// Its set-up is not timed; timeSetups times set-ups apart.
type execution struct {
	kind      kind
	run       time.Duration
	msgs      int64 // protocol messages: netsim's steady-state count, or rt's transport count
	mem       memUse
	check     []float64 // values that must repeat exactly across executions
	counted   map[string]float64
	layers    map[string]float64 // kindSpans only
	spans     []span             // kindSpans only
	spansSeen int64              // kindSpans only: spans recorded, kept or not
	cpu       map[string]int64   // kindProfile only: CPU ns per bucket
	err       error
}

// memUse is the Go heap's view of one run.
type memUse struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint64
	maxLive    uint64
}

var memMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readMemCounters() ([3]uint64, error) {
	s := make([]metrics.Sample, len(memMetricNames))
	for i, n := range memMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]uint64
	for i := range s {
		if s[i].Value.Kind() != metrics.KindUint64 {
			return out, fmt.Errorf("runtime metric %s unavailable", s[i].Name)
		}
		out[i] = s[i].Value.Uint64()
	}
	return out, nil
}

// heapSampler records the highest live heap (as marked by the latest
// GC) seen while a run is in progress.
type heapSampler struct {
	stop, done chan struct{}
	max        uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.max {
				h.max = s[0].Value.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() uint64 {
	close(h.stop)
	<-h.done
	return h.max
}

// meter brackets one run: heap counters, the live-heap sampler and, for
// kindProfile, the CPU profile. Its start and end lie outside the timed
// interval.
type meter struct {
	k       kind
	before  [3]uint64
	sampler *heapSampler
	prof    bytes.Buffer
}

func startMeter(k kind) (*meter, error) {
	m := &meter{k: k}
	var err error
	if m.before, err = readMemCounters(); err != nil {
		return nil, err
	}
	if k == kindProfile {
		if err := pprof.StartCPUProfile(&m.prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	m.sampler = startHeapSampler()
	return m, nil
}

func (m *meter) finish(ex *execution) error {
	ex.mem.maxLive = m.sampler.finish()
	after, err := readMemCounters()
	if err != nil {
		return err
	}
	ex.mem.allocBytes = after[0] - m.before[0]
	ex.mem.mallocs = after[1] - m.before[1]
	ex.mem.gcCycles = after[2] - m.before[2]
	if m.k == kindProfile {
		pprof.StopCPUProfile()
		if ex.cpu, err = cpuByBucket(m.prof.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// setupSim constructs a simulated cluster and its application.
func setupSim(w workload, size apps.Size) (apps.App, *cvm.Cluster, error) {
	app, err := apps.New(w.app, size)
	if err != nil {
		return nil, nil, err
	}
	c, err := cvm.New(cvm.DefaultConfig(w.nodes, w.threads))
	if err != nil {
		return nil, nil, err
	}
	if err := app.Setup(c); err != nil {
		return nil, nil, err
	}
	return app, c, nil
}

// setupRT constructs the real-runtime cluster the way a multi-process
// run does: one rt.Cluster and application instance per node, and one
// loopback transport endpoint per node.
func setupRT(w workload, size apps.Size) ([]apps.App, []*rt.Cluster, []transport.Conn, error) {
	nodeApps := make([]apps.App, w.nodes)
	clusters := make([]*rt.Cluster, w.nodes)
	for i := range clusters {
		app, err := apps.New(w.app, size)
		if err != nil {
			return nil, nil, nil, err
		}
		c, err := rt.NewCluster(rt.DefaultConfig(w.nodes, w.threads))
		if err != nil {
			return nil, nil, nil, err
		}
		if err := app.Setup(c); err != nil {
			return nil, nil, nil, err
		}
		nodeApps[i], clusters[i] = app, c
	}
	return nodeApps, clusters, transport.NewLoopback(w.nodes), nil
}

// timeSetups times n set-ups (constructing the cluster and the
// application, then App.Setup) one by one. A set-up takes from a few
// microseconds (rt) to tens of microseconds (the simulator), so what
// surrounds it would otherwise set its time: a collection triggered by
// earlier garbage, or the first touch of heap pages returned to the OS.
// The collector is therefore paused while the samples are taken, and
// two warm-up rounds of n set-ups, each followed by a collection, first
// leave enough freed heap in place for the timed set-ups to reuse.
func timeSetups(w workload, size apps.Size, n int) ([]time.Duration, error) {
	one := func() (err error) {
		if w.real {
			_, _, _, err = setupRT(w, size)
		} else {
			_, _, err = setupSim(w, size)
		}
		return err
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for r := 0; r < 2; r++ {
		for i := 0; i < n; i++ {
			if err := one(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
	}
	out := make([]time.Duration, n)
	for i := range out {
		t := time.Now()
		if err := one(); err != nil {
			return nil, err
		}
		out[i] = time.Since(t)
	}
	return out, nil
}

// execute runs the workload's application once. run numbers the
// execution within the invocation and tags its spans. Each execution
// starts from a heap returned to the OS, as a fresh process would:
// otherwise later executions reuse pages the first one faulted in and
// run faster than the first.
func execute(w workload, size apps.Size, k kind, run int32, maxSpans int) execution {
	debug.FreeOSMemory()
	var ex execution
	if w.real {
		ex = executeRT(w, size, k, run, maxSpans)
	} else {
		ex = executeSim(w, size, k, run, maxSpans)
	}
	ex.kind = k
	return ex
}

func executeSim(w workload, size apps.Size, k kind, run int32, maxSpans int) (ex execution) {
	app, c, err := setupSim(w, size)
	if err != nil {
		ex.err = err
		return ex
	}
	cfg := c.System().Config()
	main := app.Main
	var tr *simTracer
	if k == kindSpans {
		tr = newSimTracer(w.nodes*w.threads, run, maxSpans)
		sys := c.System()
		if err := sys.SetInterconnect(&tracedNet{Interconnect: sys.Interconnect(), tr: tr}); err != nil {
			ex.err = err
			return ex
		}
		main = tr.wrapMain(app.Main)
	}
	m, err := startMeter(k)
	if err != nil {
		ex.err = err
		return ex
	}
	start := time.Now()
	if tr != nil {
		tr.start(start)
	}
	stats, runErr := c.Run(main)
	end := time.Now()
	ex.run = end.Sub(start)
	if tr != nil {
		tr.finish(end)
	}
	if err := m.finish(&ex); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil {
		ex.err = fmt.Errorf("%s run: %w", w.app, runErr)
		return ex
	}
	if err := app.Check(); err != nil {
		ex.err = err
		return ex
	}
	ex.msgs = stats.Net.TotalMsgs()
	tot := stats.Total
	ex.counted = map[string]float64{
		"core.remote_faults":   float64(tot.RemoteFaults),
		"core.remote_locks":    float64(tot.RemoteLocks),
		"core.diffs_created":   float64(tot.DiffsCreated),
		"core.diffs_used":      float64(tot.DiffsUsed),
		"core.thread_switches": float64(tot.ThreadSwitches),
		"memsim.dcache_misses": float64(stats.MemTotal.DCacheMisses),
		"memsim.dtlb_misses":   float64(stats.MemTotal.DTLBMisses),
		"memsim.itlb_misses":   float64(stats.MemTotal.ITLBMisses),
		"netsim.msgs":          float64(stats.Net.TotalMsgs()),
		"netsim.bytes":         float64(stats.Net.TotalBytes()),
		"virt_s":               stats.Wall.Seconds(),
		"virt.user_s":          tot.UserTime.Seconds(),
		"virt.fault_wait_s":    tot.FaultWait.Seconds(),
		"virt.lock_wait_s":     tot.LockWait.Seconds(),
		"virt.barrier_wait_s":  tot.BarrierWait.Seconds(),
	}
	ex.check = []float64{app.Checksum()}
	for _, n := range fingerprintNames {
		ex.check = append(ex.check, ex.counted[n])
	}
	if tr != nil {
		ex.layers = tr.metrics(cfg.EngineWorkers > 1)
		ex.spans, ex.spansSeen = tr.log.spans, tr.log.total
	}
	return ex
}

// fingerprintNames are the simulator's counted outputs that every
// execution of one invocation must reproduce exactly, checksum aside.
var fingerprintNames = []string{
	"virt_s", "netsim.msgs", "netsim.bytes", "core.remote_faults", "core.remote_locks",
	"core.diffs_created", "core.diffs_used", "core.thread_switches",
	"memsim.dcache_misses", "memsim.dtlb_misses", "memsim.itlb_misses",
	"virt.user_s", "virt.fault_wait_s", "virt.lock_wait_s", "virt.barrier_wait_s",
}

// executeRT runs every node with RunNode over its own loopback
// endpoint, the way a multi-process cluster runs; a traced execution
// wraps each node's endpoint and thread body.
func executeRT(w workload, size apps.Size, k kind, run int32, maxSpans int) (ex execution) {
	nodeApps, clusters, conns, err := setupRT(w, size)
	if err != nil {
		ex.err = err
		return ex
	}
	var tr *rtTracer
	if k == kindSpans {
		// Every thread and endpoint keeps its own span log; share the cap.
		tr = newRTTracer(run, maxSpans/(w.nodes*(w.threads+1)))
	}
	m, err := startMeter(k)
	if err != nil {
		ex.err = err
		return ex
	}
	start := time.Now()
	if tr != nil {
		tr.start(start)
	}
	errs := make([]error, w.nodes)
	var wg sync.WaitGroup
	for i := range clusters {
		conn, main := conns[i], nodeApps[i].Main
		if tr != nil {
			conn, main = tr.wrapConn(conn), tr.wrapMain(main)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = clusters[i].RunNode(conn, main)
		}(i)
	}
	wg.Wait()
	ex.run = time.Since(start)
	var net transport.Stats
	for _, c := range conns {
		st := c.Stats()
		for _, cl := range transport.Classes() {
			net.Msgs[cl] += st.Msgs[cl]
			net.Bytes[cl] += st.Bytes[cl]
		}
		c.Close()
	}
	runErr := m.finish(&ex)
	for i, err := range errs {
		if err != nil {
			runErr = fmt.Errorf("node %d: %w", i, err)
			break
		}
	}
	if runErr != nil {
		ex.err = fmt.Errorf("%s run: %w", w.app, runErr)
		return ex
	}
	// Global thread 0 runs on node 0: only that instance holds the result.
	if err := nodeApps[0].Check(); err != nil {
		ex.err = err
		return ex
	}
	ex.msgs = net.TotalMsgs()
	ex.counted = map[string]float64{
		"transport.msgs":  float64(net.TotalMsgs()),
		"transport.bytes": float64(net.TotalBytes()),
	}
	ex.check = []float64{nodeApps[0].Checksum()}
	if tr != nil {
		ex.layers, ex.spans, ex.spansSeen = tr.metrics()
	}
	return ex
}
