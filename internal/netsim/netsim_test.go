package netsim

import (
	"testing"

	"cvm/internal/sim"
)

const us = sim.Microsecond

// newTestNet returns a one-worker engine with nodes procs and a network
// over them, wired so every window commit delivers its messages.
func newTestNet(nodes int, switchCost sim.Time) (*sim.Engine, *Network, []*sim.Proc) {
	params := DefaultParams()
	eng := sim.NewEngine(1, params.Lookahead())
	procs := make([]*sim.Proc, nodes)
	for i := range procs {
		procs[i] = eng.AddProc(switchCost)
	}
	nw := New(eng, nodes, params)
	eng.SetWindowHook(nw)
	return eng, nw, procs
}

func TestClassString(t *testing.T) {
	tests := []struct {
		c    Class
		want string
	}{
		{ClassBarrier, "Barrier"},
		{ClassLock, "Lock"},
		{ClassDiff, "Diff"},
		{Class(9), "Class(9)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("Class(%d).String() = %q, want %q", tt.c, got, tt.want)
		}
	}
}

func TestOneWayLatency(t *testing.T) {
	p := DefaultParams()
	// Header-only message: S + W + R = 128+209+128 = 465µs.
	if got, want := p.OneWay(0), 465*us; got != want {
		t.Errorf("OneWay(0) = %v, want %v", got, want)
	}
	// 8 KB page adds ~23µs.
	extra := p.OneWay(8192) - p.OneWay(0)
	if extra < 20*us || extra > 26*us {
		t.Errorf("8KB transfer adds %v, want ~23µs", extra)
	}
}

func TestRoundTripFromTask(t *testing.T) {
	eng, nw, procs := newTestNet(2, 8*us)
	p0 := procs[0]

	var rtt sim.Time
	eng.Spawn(p0, "client", func(tk *sim.Task) {
		start := tk.Now()
		nw.SendFromTask(tk, 0, 1, ClassLock, 0, func() {
			// Server handler replies immediately.
			nw.SendFromHandler(1, 0, ClassLock, 0, func() {
				eng.Wake(tk)
			})
		})
		tk.Block(sim.Reason(1))
		rtt = tk.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Round trip: one-way 465 + reply 465 = 930µs (paper's 2-hop lock,
	// minus the ~7µs manager service time).
	if rtt != 930*us {
		t.Errorf("round trip = %v, want 930µs", rtt)
	}
}

func TestIngressSerialization(t *testing.T) {
	params := DefaultParams()
	eng, nw, procs := newTestNet(9, 0)

	// Nodes 1..8 each send one message to node 0 at t=0; arrivals must be
	// handled RecvOverhead apart.
	var handledAt []sim.Time
	for i := 1; i <= 8; i++ {
		i := i
		eng.Spawn(procs[i], "sender", func(tk *sim.Task) {
			nw.SendFromTask(tk, NodeID(i), 0, ClassBarrier, 0, func() {
				handledAt = append(handledAt, procs[0].LocalNow())
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(handledAt) != 8 {
		t.Fatalf("handled %d messages, want 8", len(handledAt))
	}
	for i := 1; i < len(handledAt); i++ {
		if gap := handledAt[i] - handledAt[i-1]; gap != params.RecvOverhead {
			t.Errorf("handler gap %d = %v, want %v", i, gap, params.RecvOverhead)
		}
	}
}

func TestEgressSerializationFromHandler(t *testing.T) {
	params := DefaultParams()
	eng, nw, procs := newTestNet(3, 0)

	// A handler on node 0 sends two messages back-to-back; the second
	// departs SendOverhead after the first.
	var at1, at2 sim.Time
	eng.ScheduleOn(procs[0], 0, func() {
		nw.SendFromHandler(0, 1, ClassLock, 0, func() { at1 = procs[1].LocalNow() })
		nw.SendFromHandler(0, 2, ClassLock, 0, func() { at2 = procs[2].LocalNow() })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if at1 != 465*us {
		t.Errorf("first delivery at %v, want 465µs", at1)
	}
	if at2-at1 != params.SendOverhead {
		t.Errorf("second delivery %v after first, want %v", at2-at1, params.SendOverhead)
	}
}

func TestMinimalBarrierCost(t *testing.T) {
	// Reproduce the paper's minimal 8-processor barrier: 7 nodes send
	// arrivals to a manager; on the last arrival the manager sends 7
	// releases. Total should be ≈2470µs (paper, §4.1).
	eng, nw, procs := newTestNet(8, 8*us)

	arrived := 0
	released := make([]sim.Time, 0, 7)
	var lastRelease sim.Time
	for i := 1; i < 8; i++ {
		i := i
		eng.Spawn(procs[i], "member", func(tk *sim.Task) {
			nw.SendFromTask(tk, NodeID(i), 0, ClassBarrier, 0, func() {
				arrived++
				if arrived == 7 {
					for j := 1; j < 8; j++ {
						j := j
						nw.SendFromHandler(0, NodeID(j), ClassBarrier, 0, func() {
							released = append(released, procs[j].LocalNow())
							lastRelease = procs[j].LocalNow()
						})
					}
				}
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(released) != 7 {
		t.Fatalf("released %d, want 7", len(released))
	}
	if lastRelease < 2300*us || lastRelease > 2600*us {
		t.Errorf("minimal barrier = %v, want ≈2470µs", lastRelease)
	}
	st := nw.Stats()
	if st.Msgs[ClassBarrier] != 14 {
		t.Errorf("barrier messages = %d, want 14", st.Msgs[ClassBarrier])
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, nw, procs := newTestNet(2, 0)
	eng.Spawn(procs[0], "t", func(tk *sim.Task) {
		nw.SendFromTask(tk, 0, 1, ClassDiff, 100, func() {})
		nw.SendFromTask(tk, 0, 1, ClassDiff, 200, func() {})
		nw.SendFromTask(tk, 0, 1, ClassLock, 8, func() {})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	st := nw.Stats()
	if st.Msgs[ClassDiff] != 2 || st.Bytes[ClassDiff] != 300 {
		t.Errorf("diff = %d msgs/%d bytes, want 2/300", st.Msgs[ClassDiff], st.Bytes[ClassDiff])
	}
	if st.TotalMsgs() != 3 || st.TotalBytes() != 308 {
		t.Errorf("total = %d msgs/%d bytes, want 3/308", st.TotalMsgs(), st.TotalBytes())
	}
	nw.ResetStats()
	if nw.Stats().TotalMsgs() != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestSelfSendPanics(t *testing.T) {
	_, nw, _ := newTestNet(2, 0)
	defer func() {
		if recover() == nil {
			t.Error("SendFromHandler(0,0) did not panic")
		}
	}()
	nw.SendFromHandler(0, 0, ClassLock, 0, func() {})
}
