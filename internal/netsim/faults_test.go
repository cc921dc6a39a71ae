package netsim

import (
	"testing"

	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// sendN pushes n messages 0→1 through the network from a task and
// returns the delivery times in handler order.
func sendN(t *testing.T, f *FaultParams, n int) (delivered []sim.Time, fs FaultStats) {
	t.Helper()
	eng, nw, procs := newTestNet(2, 0)
	nw.SetFaults(f)
	p := procs[0]
	eng.Spawn(p, "sender", func(tk *sim.Task) {
		for i := 0; i < n; i++ {
			nw.SendFromTask(tk, 0, 1, ClassDiff, 64, func() {
				delivered = append(delivered, procs[1].LocalNow())
			})
			tk.Advance(10 * us)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return delivered, nw.FaultStats()
}

func TestFaultsDropRate(t *testing.T) {
	f := &FaultParams{Seed: 42}
	for c := range f.Drop {
		f.Drop[c] = 0.1
	}
	const n = 2000
	delivered, fs := sendN(t, f, n)
	if fs.Dropped == 0 {
		t.Fatal("10% drop over 2000 messages dropped nothing")
	}
	if got := len(delivered) + int(fs.Dropped); got != n {
		t.Errorf("delivered %d + dropped %d = %d, want %d", len(delivered), fs.Dropped, got, n)
	}
	// Crude rate check: 10% ± 5 points over 2000 trials.
	rate := float64(fs.Dropped) / n
	if rate < 0.05 || rate > 0.15 {
		t.Errorf("drop rate = %.3f, want ≈0.10", rate)
	}
}

func TestFaultsDupRate(t *testing.T) {
	f := &FaultParams{Seed: 7}
	for c := range f.Dup {
		f.Dup[c] = 0.2
	}
	const n = 1000
	delivered, fs := sendN(t, f, n)
	if fs.Dupped == 0 {
		t.Fatal("20% dup over 1000 messages duplicated nothing")
	}
	if got := len(delivered) - int(fs.Dupped); got != n {
		t.Errorf("delivered %d - dupped %d = %d, want %d", len(delivered), fs.Dupped, got, n)
	}
}

func TestFaultsReorderOvertakes(t *testing.T) {
	f := &FaultParams{Seed: 3, ReorderDelay: 5 * sim.Millisecond}
	for c := range f.Reorder {
		f.Reorder[c] = 0.2
	}
	eng, nw, procs := newTestNet(2, 0)
	nw.SetFaults(f)
	p := procs[0]
	var order []int // send indices in delivery order
	eng.Spawn(p, "sender", func(tk *sim.Task) {
		for i := 0; i < 200; i++ {
			i := i
			nw.SendFromTask(tk, 0, 1, ClassDiff, 64, func() {
				order = append(order, i)
			})
			tk.Advance(10 * us)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fs := nw.FaultStats(); fs.Reordered == 0 {
		t.Fatal("20% reorder over 200 messages reordered nothing")
	}
	// A delayed message must be overtaken: later send indices deliver first.
	overtakes := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			overtakes++
		}
	}
	if overtakes == 0 {
		t.Error("reordered messages never overtook — deliveries arrived in send order")
	}
}

func TestFaultsJitterDelays(t *testing.T) {
	base, _ := sendN(t, nil, 50)
	jit, _ := sendN(t, &FaultParams{Seed: 9, JitterMax: sim.Millisecond}, 50)
	if len(base) != len(jit) {
		t.Fatalf("jitter changed delivery count: %d vs %d", len(jit), len(base))
	}
	later := 0
	for i := range base {
		if jit[i] > base[i] {
			later++
		}
	}
	if later == 0 {
		t.Error("1ms jitter delayed no deliveries")
	}
}

func TestFaultsDeterministic(t *testing.T) {
	f := &FaultParams{Seed: 11, JitterMax: 500 * us, ReorderDelay: sim.Millisecond}
	for c := 0; c < NumClasses; c++ {
		f.Drop[c], f.Dup[c], f.Reorder[c] = 0.05, 0.05, 0.05
	}
	d1, fs1 := sendN(t, f, 500)
	d2, fs2 := sendN(t, f, 500)
	if fs1 != fs2 {
		t.Fatalf("fault stats diverged: %+v vs %+v", fs1, fs2)
	}
	if len(d1) != len(d2) {
		t.Fatalf("delivery counts diverged: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delivery %d diverged: %v vs %v", i, d1[i], d2[i])
		}
	}
	// A different seed must produce a different schedule.
	g := *f
	g.Seed = 12
	_, fs3 := sendN(t, &g, 500)
	if fs3 == fs1 {
		t.Error("different seeds produced identical fault stats (suspicious)")
	}
}

func TestFaultsInactiveIsByteIdentical(t *testing.T) {
	// A FaultParams with every dimension zero must leave the network on
	// the reliable fast path: identical deliveries and zero fault stats.
	base, _ := sendN(t, nil, 100)
	zero, fs := sendN(t, &FaultParams{Seed: 99}, 100)
	if fs != (FaultStats{}) {
		t.Errorf("inactive faults injected: %+v", fs)
	}
	for i := range base {
		if base[i] != zero[i] {
			t.Fatalf("delivery %d diverged: %v vs %v", i, base[i], zero[i])
		}
	}
}

func TestFaultsValidate(t *testing.T) {
	bad := []FaultParams{
		{Drop: [NumClasses]float64{1.5}},
		{Dup: [NumClasses]float64{0, -0.1}},
		{JitterMax: -1},
		{Reorder: [NumClasses]float64{0.1}}, // no ReorderDelay
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("Validate(%d) accepted bad params %+v", i, f)
		}
	}
	good := FaultParams{Drop: [NumClasses]float64{0.5, 1, 0}, JitterMax: us}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected good params: %v", err)
	}
}

func TestFaultsTraceAndCounters(t *testing.T) {
	eng, nw, procs := newTestNet(2, 0)
	rec := trace.NewRecorder(2, 1, 0)
	nw.SetTracer(rec)
	var dropped, dupped metrics.Counter
	nw.SetFaultCounters(&dropped, &dupped)
	f := &FaultParams{Seed: 5}
	for c := 0; c < NumClasses; c++ {
		f.Drop[c], f.Dup[c] = 0.2, 0.2
	}
	nw.SetFaults(f)
	eng.Spawn(procs[0], "sender", func(tk *sim.Task) {
		for i := 0; i < 200; i++ {
			nw.SendFromTask(tk, 0, 1, ClassLock, 16, func() {})
			tk.Advance(us)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := map[trace.Kind]int{}
	for n := 0; n < 2; n++ {
		for _, e := range rec.NodeEvents(n) {
			kinds[e.Kind]++
		}
	}
	fs := nw.FaultStats()
	if fs.Dropped == 0 || fs.Dupped == 0 {
		t.Fatalf("expected drops and dups, got %+v", fs)
	}
	if int64(kinds[trace.KindMsgDrop]) != fs.Dropped {
		t.Errorf("msg.drop events = %d, want %d", kinds[trace.KindMsgDrop], fs.Dropped)
	}
	if int64(kinds[trace.KindMsgDup]) != fs.Dupped {
		t.Errorf("msg.dup events = %d, want %d", kinds[trace.KindMsgDup], fs.Dupped)
	}
	if int64(dropped) != fs.Dropped || int64(dupped) != fs.Dupped {
		t.Errorf("counters = %d/%d, want %d/%d", dropped, dupped, fs.Dropped, fs.Dupped)
	}
	// Every delivered message has a send/deliver pair; drops have neither.
	if kinds[trace.KindMsgSend] != kinds[trace.KindMsgDeliver] {
		t.Errorf("send events %d != deliver events %d", kinds[trace.KindMsgSend], kinds[trace.KindMsgDeliver])
	}
}
