package rt_test

import (
	"runtime"
	"testing"

	"cvm"
	"cvm/internal/metrics"
	"cvm/internal/rt"
	"cvm/internal/trace"
)

// runMetered runs a lock/barrier workload with metrics and tracing
// attached and returns the snapshot plus the recorder. during, when
// non-nil, is called in a loop from a second goroutine while the run
// executes; thread 0 holds the run until the first call returns, so at
// least one call overlaps it.
func runMetered(t *testing.T, nodes, threads, iters int, during func(*rt.Cluster)) (*metrics.Snapshot, *trace.Recorder, *rt.Cluster) {
	t.Helper()
	cfg := rt.DefaultConfig(nodes, threads)
	rec := trace.NewRecorder(nodes, threads, 0)
	cfg.Metrics = metrics.NewRegistry()
	cfg.Tracer = rec
	c, err := rt.NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctr := cvm.MustAllocF64(c, "ctr", 1)
	started, scraped := make(chan struct{}), make(chan struct{})
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		if during == nil {
			return
		}
		<-started
		during(c)
		close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				during(c)
			}
		}
	}()
	_, err = c.RunLoopback(func(w cvm.Worker) {
		if during != nil && w.GlobalID() == 0 {
			close(started)
			<-scraped
		}
		for i := 0; i < iters; i++ {
			w.Lock(3)
			ctr.Add(w, 0, 1)
			w.Unlock(3)
		}
		w.Barrier(0)
		w.LocalBarrier(1)
		w.ReduceF64(2, 1, 0)
	})
	close(stop)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	return c.MetricsSnapshot(), rec, c
}

// checkSyncCounts checks the backend-invariant counters of a runMetered
// snapshot: each is program-determined — exactly one increment per
// application call — which is the property the sim-vs-real equivalence
// gate relies on.
func checkSyncCounts(t *testing.T, snap *metrics.Snapshot, nodes, threads, iters int) {
	t.Helper()
	nt, it := int64(nodes*threads), int64(iters)
	for _, tc := range []struct {
		name string
		got  metrics.Counter
		want int64
	}{
		{"lock_acquires", snap.LockAcquires, nt * it},
		{"lock_releases", snap.LockReleases, nt * it},
		{"barrier_arrivals", snap.BarrierArrivals, nt},
		{"local_barrier_arrivals", snap.LocalBarrierArrivals, nt},
		{"reductions", snap.Reductions, nt},
	} {
		if int64(tc.got) != tc.want {
			t.Errorf("%s = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

func TestMetricsCountsSyncOps(t *testing.T) {
	const nodes, threads, iters = 4, 2, 5
	snap, _, _ := runMetered(t, nodes, threads, iters, nil)
	checkSyncCounts(t, snap, nodes, threads, iters)
}

// TestMetricsLiveScrape exercises the "safe to call mid-run" promise:
// a second goroutine snapshots the metrics and the status in a loop
// while the run executes (run under -race, this checks that every
// observation is ordered against the scrape). Scraping must not
// perturb the counts.
func TestMetricsLiveScrape(t *testing.T) {
	const nodes, threads, iters = 4, 2, 20
	scrapes := 0
	snap, _, _ := runMetered(t, nodes, threads, iters, func(c *rt.Cluster) {
		scrapes++
		if s := c.MetricsSnapshot(); s == nil || len(s.Nodes) != nodes {
			t.Errorf("mid-run snapshot %v, want one with %d nodes", s, nodes)
		}
		for _, st := range c.Status() {
			if len(st.Threads) != threads {
				t.Errorf("mid-run status of node %d has %d threads, want %d", st.Node, len(st.Threads), threads)
			}
		}
		runtime.Gosched()
	})
	t.Logf("%d scrapes during the run", scrapes)
	checkSyncCounts(t, snap, nodes, threads, iters)
}

// TestMetricsObservesWaits checks that the wall-clock histograms and
// attribution maps populate: remote lock waits classify as 2-hop (the
// centralized managers never need a third hop), barrier stalls and
// fault service times are nonzero, and the hot-lock table attributes
// the contended lock.
func TestMetricsObservesWaits(t *testing.T) {
	const nodes, threads, iters = 4, 2, 5
	snap, rec, _ := runMetered(t, nodes, threads, iters, nil)

	var hist metrics.Histogram
	for i := range snap.Nodes {
		nm := &snap.Nodes[i]
		hist.Count += nm.Lock2Hop.Count + nm.LockLocalWait.Count
	}
	if got, want := hist.Count, int64(nodes*threads*iters); got != want {
		t.Errorf("lock wait observations = %d, want %d", got, want)
	}
	var threeHop int64
	for i := range snap.Nodes {
		threeHop += snap.Nodes[i].Lock3Hop.Count
	}
	if threeHop != 0 {
		t.Errorf("Lock3Hop = %d, want 0 (centralized managers are 2-hop by construction)", threeHop)
	}
	var stalls, faults int64
	for i := range snap.Nodes {
		stalls += snap.Nodes[i].BarrierStall.Count
		faults += snap.Nodes[i].FaultService.Count
	}
	if stalls != int64(nodes*threads) {
		t.Errorf("barrier stalls = %d, want %d", stalls, nodes*threads)
	}
	if faults == 0 {
		t.Error("no fault service observations despite remote page traffic")
	}
	if a := snap.LockWait[3]; a == nil || a.Count == 0 {
		t.Errorf("lock 3 missing from the hot-lock attribution: %+v", snap.LockWait)
	}
	if len(snap.PageWait) == 0 {
		t.Error("no page wait attribution despite remote faults")
	}
	if len(snap.MsgClasses) == 0 {
		t.Error("snapshot carries no message class names")
	}
	if rec.Len() == 0 {
		t.Error("tracer attached but no events recorded")
	}
}

// TestStatusAfterRun checks the live-introspection surface: after the
// run every thread reports done, the epoch advanced with the acquires,
// and the per-peer traffic is populated.
func TestStatusAfterRun(t *testing.T) {
	const nodes, threads = 4, 2
	_, _, c := runMetered(t, nodes, threads, 3, nil)
	sts := c.Status()
	if len(sts) != nodes {
		t.Fatalf("Status() returned %d nodes, want %d", len(sts), nodes)
	}
	for _, st := range sts {
		if len(st.Threads) != threads {
			t.Errorf("node %d: %d thread states, want %d", st.Node, len(st.Threads), threads)
		}
		for i, s := range st.Threads {
			if s != "done" {
				t.Errorf("node %d thread %d state %q after run, want done", st.Node, i, s)
			}
		}
		if st.Epoch == 0 {
			t.Errorf("node %d epoch 0 after a run with acquires", st.Node)
		}
		if st.Failure != "" {
			t.Errorf("node %d reports failure %q after clean run", st.Node, st.Failure)
		}
		var traffic int64
		for _, p := range st.Peers {
			traffic += p.Msgs
		}
		if traffic == 0 {
			t.Errorf("node %d reports zero peer traffic", st.Node)
		}
	}
}

// TestMetricsSecondAttachPanics pins the registry's one-run rule: a
// registry attached to a second run panics rather than silently
// aggregating the two (the equivalence gate needs one run's counts).
func TestMetricsSecondAttachPanics(t *testing.T) {
	met := metrics.NewRegistry()
	run := func() error {
		cfg := rt.DefaultConfig(2, 1)
		cfg.Metrics = met
		c, err := rt.NewCluster(cfg)
		if err != nil {
			return err
		}
		_, err = c.RunLoopback(func(w cvm.Worker) { w.Barrier(0) })
		return err
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("attaching a used registry to a second run did not panic")
		}
	}()
	run()
}
