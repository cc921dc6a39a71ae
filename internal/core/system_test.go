package core

import (
	"errors"
	"testing"

	"cvm/internal/sim"
)

// testSystem builds a system with the default calibration.
func testSystem(t *testing.T, nodes, threads int) *System {
	t.Helper()
	s, err := NewSystem(DefaultConfig(nodes, threads))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runApp allocates, starts, and runs the given thread body.
func runApp(t *testing.T, s *System, main func(*Thread)) {
	t.Helper()
	if err := s.Start(main); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"default", func(c *Config) {}, true},
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, false},
		{"zero threads", func(c *Config) { c.ThreadsPerNode = 0 }, false},
		{"odd page size", func(c *Config) { c.PageSize = 1000 }, false},
		{"tiny page size", func(c *Config) { c.PageSize = 32 }, false},
		{"non-power-of-two line", func(c *Config) { c.Mem.LineSize = 48 }, false},
		{"line larger than page", func(c *Config) { c.PageSize, c.Mem.LineSize = 64, 128 }, false},
		{"mem page size overridden", func(c *Config) { c.Mem.PageSize = 12 << 10 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(2, 2)
			tt.mutate(&cfg)
			err := cfg.Validate()
			if (err == nil) != tt.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestAllocPageAligned(t *testing.T) {
	s := testSystem(t, 2, 1)
	a, err := s.Alloc("a", 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Alloc("b", 8192)
	if err != nil {
		t.Fatal(err)
	}
	if a != 0 {
		t.Errorf("first segment base = %d, want 0", a)
	}
	if b != 8192 {
		t.Errorf("second segment base = %d, want 8192 (page aligned)", b)
	}
	if _, err := s.Alloc("bad", 0); err == nil {
		t.Error("Alloc(0) succeeded, want error")
	}
	if len(s.Segments()) != 2 {
		t.Errorf("segments = %d, want 2", len(s.Segments()))
	}
}

func TestSingleNodeReadWrite(t *testing.T) {
	s := testSystem(t, 1, 1)
	addr, _ := s.Alloc("data", 8192)
	var got float64
	runApp(t, s, func(w *Thread) {
		w.WriteF64(addr, 3.25)
		got = w.ReadF64(addr)
	})
	if got != 3.25 {
		t.Errorf("read back %v, want 3.25", got)
	}
}

func TestUninitializedReadsZero(t *testing.T) {
	s := testSystem(t, 2, 1)
	addr, _ := s.Alloc("data", 16384)
	vals := make([]float64, 2)
	runApp(t, s, func(w *Thread) {
		vals[w.NodeID()] = w.ReadF64(addr + Addr(w.NodeID()*8))
	})
	if vals[0] != 0 || vals[1] != 0 {
		t.Errorf("uninitialized reads = %v, want zeros", vals)
	}
}

func TestBarrierPropagatesWrites(t *testing.T) {
	// Node 0 writes, everyone barriers, all nodes must read the value.
	s := testSystem(t, 4, 1)
	addr, _ := s.Alloc("data", 8192)
	got := make([]float64, 4)
	runApp(t, s, func(w *Thread) {
		if w.GlobalID() == 0 {
			w.WriteF64(addr, 42)
		}
		w.Barrier(0)
		got[w.NodeID()] = w.ReadF64(addr)
	})
	for i, v := range got {
		if v != 42 {
			t.Errorf("node %d read %v, want 42", i, v)
		}
	}
	// Reading the value required remote faults on nodes 1..3.
	st := s.Stats()
	if st.Total.RemoteFaults < 3 {
		t.Errorf("remote faults = %d, want ≥ 3", st.Total.RemoteFaults)
	}
	if st.Total.DiffsCreated < 1 {
		t.Errorf("diffs created = %d, want ≥ 1", st.Total.DiffsCreated)
	}
	if st.Total.DiffsUsed < 3 {
		t.Errorf("diffs used = %d, want ≥ 3", st.Total.DiffsUsed)
	}
}

func TestLockCriticalSectionCounter(t *testing.T) {
	// Classic mutual-exclusion increment test across nodes and threads.
	const nodes, threads, rounds = 4, 2, 5
	s := testSystem(t, nodes, threads)
	addr, _ := s.Alloc("counter", 8192)
	runApp(t, s, func(w *Thread) {
		for r := 0; r < rounds; r++ {
			w.Lock(7)
			v := w.ReadI64(addr)
			w.WriteI64(addr, v+1)
			w.Unlock(7)
		}
		w.Barrier(0)
	})
	// Verify final value through a fresh read on node 0's view.
	want := int64(nodes * threads * rounds)
	final := s.nodes[0].peek(0)
	if final == nil || final.data == nil {
		t.Fatal("counter page never materialized on node 0")
	}
	// Node 0 may be stale if it wasn't the last writer; check via stats
	// instead: every node's last read inside the lock saw a consistent
	// chain, so check the maximum across nodes.
	var got int64
	for _, n := range s.nodes {
		p := n.peek(0)
		if p == nil || p.data == nil {
			continue
		}
		v := int64(le64(p.data))
		if v > got {
			got = v
		}
	}
	if got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestLockMutualExclusionOrdering(t *testing.T) {
	// Record critical-section entry/exit; sections must never overlap in
	// virtual time.
	s := testSystem(t, 3, 2)
	_, _ = s.Alloc("pad", 8192)
	type span struct{ in, out sim.Time }
	var spans []span
	runApp(t, s, func(w *Thread) {
		for r := 0; r < 3; r++ {
			w.Lock(1)
			in := w.Now()
			w.Compute(50 * sim.Microsecond)
			spans = append(spans, span{in, w.Now()})
			w.Unlock(1)
		}
	})
	for i := 1; i < len(spans); i++ {
		if spans[i].in < spans[i-1].out {
			t.Fatalf("critical sections overlap: %v before %v ended",
				spans[i].in, spans[i-1].out)
		}
	}
	if len(spans) != 18 {
		t.Errorf("sections = %d, want 18", len(spans))
	}
}

func TestMultiWriterFalseSharing(t *testing.T) {
	// Two nodes concurrently write different halves of the same page;
	// after a barrier both see both halves — the multiple-writer merge.
	s := testSystem(t, 2, 1)
	addr, _ := s.Alloc("shared", 8192)
	var a0, b0, a1, b1 float64
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 0 {
			w.WriteF64(addr, 1.5)
		} else {
			w.WriteF64(addr+4096, 2.5)
		}
		w.Barrier(0)
		if w.NodeID() == 0 {
			a0, b0 = w.ReadF64(addr), w.ReadF64(addr+4096)
		} else {
			a1, b1 = w.ReadF64(addr), w.ReadF64(addr+4096)
		}
	})
	if a0 != 1.5 || b0 != 2.5 {
		t.Errorf("node 0 sees (%v, %v), want (1.5, 2.5)", a0, b0)
	}
	if a1 != 1.5 || b1 != 2.5 {
		t.Errorf("node 1 sees (%v, %v), want (1.5, 2.5)", a1, b1)
	}
}

func TestLocalWritesSurviveRemoteDiff(t *testing.T) {
	// A node with a dirty page receives a concurrent remote diff for the
	// same page (false sharing): its own writes must survive, and its own
	// diff must not re-export the remote bytes.
	s := testSystem(t, 2, 1)
	addr, _ := s.Alloc("shared", 8192)
	var v0, v1 float64
	runApp(t, s, func(w *Thread) {
		// Both nodes write disjoint halves concurrently.
		if w.NodeID() == 0 {
			w.WriteF64(addr+8, 10)
		} else {
			w.WriteF64(addr+4096+8, 20)
		}
		w.Barrier(0)
		// Each node now writes again (still falsely shared) and reads
		// the other's earlier value.
		if w.NodeID() == 0 {
			w.WriteF64(addr+16, 11)
			v0 = w.ReadF64(addr + 4096 + 8)
		} else {
			w.WriteF64(addr+4096+16, 21)
			v1 = w.ReadF64(addr + 8)
		}
		w.Barrier(1)
		if w.NodeID() == 0 {
			v0 += w.ReadF64(addr + 4096 + 16) // should be 21
		} else {
			v1 += w.ReadF64(addr + 16) // should be 11
		}
	})
	if v0 != 20+21 {
		t.Errorf("node 0 observed %v, want 41", v0)
	}
	if v1 != 10+11 {
		t.Errorf("node 1 observed %v, want 21", v1)
	}
}

func TestBlockSamePage(t *testing.T) {
	// Two local threads touch the same invalid page: the second must join
	// the first's fetch (Block Same Page).
	s := testSystem(t, 2, 2)
	addr, _ := s.Alloc("data", 8192)
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 0 && w.LocalID() == 0 {
			w.WriteF64(addr, 5)
		}
		w.Barrier(0)
		if w.NodeID() == 1 {
			_ = w.ReadF64(addr + Addr(w.LocalID()*8))
		}
		w.Barrier(1)
	})
	st := s.Stats()
	if st.Nodes[1].BlockSamePage != 1 {
		t.Errorf("BlockSamePage = %d, want 1", st.Nodes[1].BlockSamePage)
	}
	if st.Nodes[1].RemoteFaults != 1 {
		t.Errorf("RemoteFaults = %d, want 1 (shared fetch)", st.Nodes[1].RemoteFaults)
	}
}

func TestBlockSameLockAndAggregation(t *testing.T) {
	// Threads on one node acquiring the same remote lock: one remote
	// request, the rest queue locally.
	s := testSystem(t, 2, 4)
	_, _ = s.Alloc("pad", 8192)
	runApp(t, s, func(w *Thread) {
		w.Barrier(0)
		if w.NodeID() == 1 {
			w.Lock(0) // lock 0's manager is node 0
			w.Compute(200 * sim.Microsecond)
			w.Unlock(0)
		}
		w.Barrier(1)
	})
	st := s.Stats()
	if st.Nodes[1].RemoteLocks != 1 {
		t.Errorf("RemoteLocks = %d, want 1 (local aggregation)", st.Nodes[1].RemoteLocks)
	}
	if st.Nodes[1].BlockSameLock != 3 {
		t.Errorf("BlockSameLock = %d, want 3", st.Nodes[1].BlockSameLock)
	}
}

func TestReleasePrefersLocalWaiters(t *testing.T) {
	// With local threads queued, release hands the lock over locally even
	// if a remote request arrived first; the remote node gets it only
	// after the local queue drains.
	s := testSystem(t, 2, 2)
	_, _ = s.Alloc("pad", 8192)
	var order []int
	runApp(t, s, func(w *Thread) {
		w.Barrier(0)
		switch {
		case w.NodeID() == 1:
			// Both node 1 threads grab the lock early.
			w.Compute(sim.Time(w.LocalID()) * 10 * sim.Microsecond)
			w.Lock(0)
			order = append(order, 10+w.LocalID())
			w.Compute(3000 * sim.Microsecond)
			w.Unlock(0)
		case w.LocalID() == 0:
			// Node 0 requests while node 1 holds it.
			w.Compute(1500 * sim.Microsecond)
			w.Lock(0)
			order = append(order, 0)
			w.Unlock(0)
		}
		w.Barrier(1)
	})
	want := []int{10, 11, 0}
	if len(order) != 3 || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("acquisition order = %v, want %v (local preference)", order, want)
	}
}

func TestLocalBarrier(t *testing.T) {
	// Local barriers synchronize co-located threads without messages.
	s := testSystem(t, 2, 4)
	_, _ = s.Alloc("pad", 8192)
	counts := make([]int, 2)
	runApp(t, s, func(w *Thread) {
		counts[w.NodeID()]++
		w.LocalBarrier(3)
		if counts[w.NodeID()] != 4 {
			t.Errorf("thread passed local barrier with count %d", counts[w.NodeID()])
		}
	})
	if s.Stats().Net.TotalMsgs() != 0 {
		t.Errorf("local barrier sent %d messages, want 0", s.Stats().Net.TotalMsgs())
	}
}

func TestReduceF64(t *testing.T) {
	s := testSystem(t, 4, 3)
	_, _ = s.Alloc("pad", 8192)
	results := make(chan float64, 12)
	runApp(t, s, func(w *Thread) {
		v := float64(w.GlobalID() + 1)
		results <- w.ReduceF64(0, v, ReduceSum)
	})
	close(results)
	want := 78.0 // 1+2+...+12
	for r := range results {
		if r != want {
			t.Fatalf("reduce result = %v, want %v", r, want)
		}
	}
	// One arrival + one release per non-manager node.
	if got := s.Stats().Net.TotalMsgs(); got != 6 {
		t.Errorf("reduce messages = %d, want 6", got)
	}
}

func TestReduceMaxMin(t *testing.T) {
	s := testSystem(t, 2, 2)
	_, _ = s.Alloc("pad", 8192)
	var gotMax, gotMin float64
	runApp(t, s, func(w *Thread) {
		max := w.ReduceF64(0, float64(w.GlobalID()), ReduceMax)
		min := w.ReduceF64(1, float64(w.GlobalID())-10, ReduceMin)
		if w.GlobalID() == 0 {
			gotMax, gotMin = max, min
		}
	})
	if gotMax != 3 {
		t.Errorf("max = %v, want 3", gotMax)
	}
	if gotMin != -10 {
		t.Errorf("min = %v, want -10", gotMin)
	}
}

func TestThreadSwitchOnRemoteRequest(t *testing.T) {
	// While thread 0 waits on a remote fault, thread 1 must run — the
	// paper's core latency-hiding mechanism.
	s := testSystem(t, 2, 2)
	addr, _ := s.Alloc("data", 16384)
	var overlapped sim.Time
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 0 && w.LocalID() == 0 {
			w.WriteF64(addr, 1)
			w.WriteF64(addr+8192, 2)
		}
		w.Barrier(0)
		if w.NodeID() == 1 {
			if w.LocalID() == 0 {
				_ = w.ReadF64(addr) // blocks on remote fault
			} else {
				start := w.Now()
				w.Compute(400 * sim.Microsecond) // runs during the fault
				overlapped = w.Now() - start
			}
		}
		w.Barrier(1)
	})
	st := s.Stats()
	if st.Nodes[1].ThreadSwitches == 0 {
		t.Error("no thread switches on node 1")
	}
	if overlapped < 400*sim.Microsecond {
		t.Errorf("thread 1 computed %v, want ≥ 400µs", overlapped)
	}
	// The fault latency partially overlapped with computation, so
	// non-overlapped fault wait must be below the full ~1100µs.
	if st.Nodes[1].FaultWait >= 1100*sim.Microsecond {
		t.Errorf("fault wait = %v, want < 1100µs (overlap)", st.Nodes[1].FaultWait)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (RunStats, float64) {
		s := testSystem(t, 4, 2)
		addr, _ := s.Alloc("grid", 64*1024)
		var sum float64
		if err := s.Start(func(w *Thread) {
			n := 64 * 1024 / 8
			chunk := n / w.Threads()
			for r := 0; r < 3; r++ {
				for i := w.GlobalID() * chunk; i < (w.GlobalID()+1)*chunk; i++ {
					a := addr + Addr(i*8)
					w.WriteF64(a, w.ReadF64(a)+float64(r+w.GlobalID()))
				}
				w.Barrier(r)
			}
			if w.GlobalID() == 0 {
				for i := 0; i < n; i += 128 {
					sum += w.ReadF64(addr + Addr(i*8))
				}
			}
			w.Barrier(100)
		}); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Stats(), sum
	}
	st1, sum1 := run()
	st2, sum2 := run()
	if sum1 != sum2 {
		t.Errorf("checksums differ: %v vs %v", sum1, sum2)
	}
	if st1.Wall != st2.Wall {
		t.Errorf("wall times differ: %v vs %v", st1.Wall, st2.Wall)
	}
	if st1.Total != st2.Total {
		t.Errorf("stats differ:\n%+v\n%+v", st1.Total, st2.Total)
	}
}

func TestDeadlockSurfaced(t *testing.T) {
	s := testSystem(t, 1, 2)
	_, _ = s.Alloc("pad", 8192)
	if err := s.Start(func(w *Thread) {
		if w.LocalID() == 0 {
			w.Lock(0)
			// Never unlocked: thread 1 blocks forever.
		} else {
			w.Lock(0)
		}
	}); err != nil {
		t.Fatal(err)
	}
	err := s.Run()
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("Run() = %v, want deadlock", err)
	}
}

func TestMarkSteadyStateResets(t *testing.T) {
	s := testSystem(t, 2, 1)
	addr, _ := s.Alloc("data", 8192)
	runApp(t, s, func(w *Thread) {
		if w.NodeID() == 0 {
			w.WriteF64(addr, 1)
		}
		w.Barrier(0)
		_ = w.ReadF64(addr)
		w.Barrier(1)
		if w.GlobalID() == 0 {
			w.MarkSteadyState()
		}
		w.Barrier(2)
		w.Compute(100 * sim.Microsecond)
	})
	st := s.Stats()
	if st.Total.RemoteFaults != 0 {
		t.Errorf("post-reset remote faults = %d, want 0", st.Total.RemoteFaults)
	}
	if st.Wall <= 0 {
		t.Errorf("wall = %v, want > 0", st.Wall)
	}
	if st.Wall > 10*sim.Millisecond {
		t.Errorf("wall = %v, want small post-reset window", st.Wall)
	}
}

func TestUnlockWithoutLockPanics(t *testing.T) {
	s := testSystem(t, 1, 1)
	_, _ = s.Alloc("pad", 8192)
	panicked := make(chan bool, 1)
	if err := s.Start(func(w *Thread) {
		defer func() { panicked <- recover() != nil }()
		w.Unlock(0)
	}); err != nil {
		t.Fatal(err)
	}
	_ = s.Run()
	select {
	case p := <-panicked:
		if !p {
			t.Error("Unlock without Lock did not panic")
		}
	default:
		t.Error("thread did not finish")
	}
}
