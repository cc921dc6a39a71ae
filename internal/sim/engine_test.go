package sim

import (
	"errors"
	"fmt"
	"testing"
)

const us = Microsecond

// newTestEngine returns a one-worker engine whose 10µs windows are finer
// than every cross-proc interaction the tests stage.
func newTestEngine() *Engine { return NewEngine(1, 10*us) }

// hookFunc adapts a function to WindowHook.
type hookFunc func(limit Time)

func (f hookFunc) CommitWindow(limit Time) { f(limit) }

func TestTimeString(t *testing.T) {
	tests := []struct {
		in   Time
		want string
	}{
		{0, "0ns"},
		{500, "500ns"},
		{3 * Microsecond, "3.000µs"},
		{1500 * Microsecond, "1.500ms"},
		{2 * Second, "2.000s"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(tt.in), got, tt.want)
		}
	}
}

func TestSingleTaskAdvances(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(8 * us)
	var end Time
	e.Spawn(p, "t0", func(task *Task) {
		task.Advance(100 * us)
		task.Advance(50 * us)
		end = task.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 150*us {
		t.Errorf("task clock = %v, want 150µs", end)
	}
	if p.Clock() != 150*us {
		t.Errorf("proc clock = %v, want 150µs", p.Clock())
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := newTestEngine()
	var order []int
	p := e.AddProc(0)
	e.ScheduleOn(p, 30*us, func() { order = append(order, 3) })
	e.ScheduleOn(p, 10*us, func() { order = append(order, 1) })
	e.ScheduleOn(p, 20*us, func() { order = append(order, 2) })
	e.Spawn(p, "t", func(task *Task) { task.Advance(100 * us) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Errorf("event order = %v, want [1 2 3]", order)
	}
}

func TestEqualTimeEventsFIFO(t *testing.T) {
	e := newTestEngine()
	var order []int
	p := e.AddProc(0)
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleOn(p, 5*us, func() { order = append(order, i) })
	}
	e.Spawn(p, "t", func(task *Task) { task.Advance(10 * us) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO at equal times)", i, v, i)
		}
	}
}

func TestBlockAndWake(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(8 * us)
	var task *Task
	var resumedAt Time
	task = e.Spawn(p, "blocker", func(tk *Task) {
		tk.Advance(10 * us)
		tk.Block(Reason(1))
		resumedAt = tk.Now()
	})
	e.ScheduleOn(p, 500*us, func() { e.Wake(task) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Woken at 500µs; same task resumes (no other task ran), so no switch
	// cost is charged.
	if resumedAt != 500*us {
		t.Errorf("resumed at %v, want 500µs", resumedAt)
	}
}

func TestSwitchCostCharged(t *testing.T) {
	e := newTestEngine()
	const sw = 8 * us
	p := e.AddProc(sw)
	var switches int
	p.SetHooks(ProcHooks{OnSwitch: func(from, to *Task) { switches++ }})

	var t1 *Task
	var t2ResumedAt, t1ResumedAt Time
	t1 = e.Spawn(p, "t1", func(tk *Task) {
		tk.Advance(10 * us)
		tk.Block(Reason(1)) // woken at 100
		t1ResumedAt = tk.Now()
	})
	e.Spawn(p, "t2", func(tk *Task) {
		// Dispatched after t1 blocks at 10µs: one switch (8µs).
		tk.Advance(30 * us) // runs 18..48
		t2ResumedAt = tk.Now()
	})
	e.ScheduleOn(p, 100*us, func() { e.Wake(t1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if t2ResumedAt != 48*us {
		t.Errorf("t2 finished at %v, want 48µs", t2ResumedAt)
	}
	// t1 woken at 100, switch from t2 charged: resumes at 108.
	if t1ResumedAt != 108*us {
		t.Errorf("t1 resumed at %v, want 108µs", t1ResumedAt)
	}
	if switches != 2 {
		t.Errorf("switches = %d, want 2", switches)
	}
}

func TestIdleAttribution(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	const faultReason = Reason(2)
	var idleStart, idleEnd Time
	var idleReason Reason
	p.SetHooks(ProcHooks{OnIdleEnd: func(start, end Time, task *Task) {
		idleStart, idleEnd, idleReason = start, end, task.BlockReason()
	}})
	var task *Task
	task = e.Spawn(p, "t", func(tk *Task) {
		tk.Advance(25 * us)
		tk.Block(faultReason)
	})
	e.ScheduleOn(p, 250*us, func() { e.Wake(task) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if idleStart != 25*us || idleEnd != 250*us {
		t.Errorf("idle = [%v, %v), want [25µs, 250µs)", idleStart, idleEnd)
	}
	if idleReason != faultReason {
		t.Errorf("idle reason = %d, want %d", idleReason, faultReason)
	}
}

func TestHorizonCausality(t *testing.T) {
	// A task on proc A computes in large steps while a message from proc
	// B mutates state at an earlier virtual time. The message crosses
	// procs the only legal way — recorded during B's window and scheduled
	// on A by the window hook — and the reader must observe it no later
	// than its first primitive after the delivery time.
	e := NewEngine(1, 20*us)
	a := e.AddProc(0)
	b := e.AddProc(0)

	shared := 0
	var outbox []Time
	e.SetWindowHook(hookFunc(func(limit Time) {
		for _, at := range outbox {
			if at < limit {
				t.Fatalf("delivery at %v inside the window ending %v", at, limit)
			}
			e.ScheduleOn(a, at, func() { shared = 42 })
		}
		outbox = outbox[:0]
	}))
	var sawAt Time
	sawVal := -1
	e.Spawn(a, "reader", func(tk *Task) {
		for i := 0; i < 100; i++ {
			tk.Advance(10 * us)
			if shared != 0 && sawVal == -1 {
				sawVal = shared
				sawAt = tk.Now()
			}
		}
	})
	e.Spawn(b, "writer", func(tk *Task) {
		tk.Advance(101 * us)
		// Send a "message" that sets shared at 150µs.
		outbox = append(outbox, 150*us)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sawVal != 42 {
		t.Fatalf("reader never saw write")
	}
	if sawAt < 150*us || sawAt > 160*us {
		t.Errorf("reader saw write at %v, want within one granule after 150µs", sawAt)
	}
}

func TestTaskScheduleLowersHorizon(t *testing.T) {
	// A task's own event must apply before the task runs past it, even
	// when one compute charge jumps far beyond the event time.
	e := newTestEngine()
	p := e.AddProc(0)
	var firedAt, resumedAt Time
	e.Spawn(p, "t", func(tk *Task) {
		tk.Schedule(15*us, func() { firedAt = p.LocalNow() })
		tk.Advance(100 * us)
		if firedAt == 0 {
			t.Error("task ran past its own event before the event applied")
		}
		resumedAt = tk.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if firedAt != 15*us || resumedAt != 100*us {
		t.Errorf("event at %v, task at %v; want 15µs, 100µs", firedAt, resumedAt)
	}
}

func TestProcsInterleaveByClock(t *testing.T) {
	// Two procs advancing in different step sizes interleave in
	// virtual-time order at window granularity: with 10µs windows finer
	// than either step, every entry lands in time order.
	e := newTestEngine()
	var log []string
	mk := func(p *Proc, name string, step Time, n int) {
		e.Spawn(p, name, func(tk *Task) {
			for i := 0; i < n; i++ {
				tk.Advance(step)
				log = append(log, fmt.Sprintf("%s@%d", name, int64(tk.Now()/us)))
			}
		})
	}
	mk(e.AddProc(0), "a", 30*us, 3) // 30, 60, 90
	mk(e.AddProc(0), "b", 20*us, 4) // 20, 40, 60, 80
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// At the t=60 tie both procs run in the same window, in proc order.
	want := "[b@20 a@30 b@40 a@60 b@60 b@80 a@90]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("interleaving = %v, want %v", got, want)
	}
}

func TestYieldRoundRobin(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	var log []string
	for _, name := range []string{"x", "y"} {
		name := name
		e.Spawn(p, name, func(tk *Task) {
			for i := 0; i < 3; i++ {
				tk.Advance(1 * us)
				log = append(log, name)
				tk.Yield()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[x y x y x y]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("yield order = %v, want %v", got, want)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	e.Spawn(p, "stuck", func(tk *Task) {
		tk.Block(Reason(3)) // nobody wakes it
	})
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run() = %v, want ErrDeadlock", err)
	}
	e.Shutdown()
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		e := newTestEngine()
		var log []string
		for pi := 0; pi < 4; pi++ {
			p := e.AddProc(8 * us)
			for ti := 0; ti < 3; ti++ {
				name := fmt.Sprintf("p%dt%d", pi, ti)
				step := Time(pi*7+ti*3+1) * us
				e.Spawn(p, name, func(tk *Task) {
					for i := 0; i < 5; i++ {
						tk.Advance(step)
						log = append(log, fmt.Sprintf("%s@%d", name, tk.Now()))
						tk.Yield()
					}
				})
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	first := fmt.Sprint(run())
	for i := 0; i < 3; i++ {
		if got := fmt.Sprint(run()); got != first {
			t.Fatalf("run %d diverged from first run", i+2)
		}
	}
}

func TestSliceHookCoversUserTime(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	var total Time
	p.SetHooks(ProcHooks{OnSlice: func(task *Task, start, end Time) { total += end - start }})
	e.Spawn(p, "t", func(tk *Task) {
		tk.Advance(40 * us)
		tk.Yield()
		tk.Advance(60 * us)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 100*us {
		t.Errorf("slice total = %v, want 100µs", total)
	}
}

func TestSpawnMidRun(t *testing.T) {
	// Task IDs are engine-global, so spawning from inside a window would
	// make them depend on the worker schedule: Spawn during Run panics,
	// and the spawning task can recover and carry on.
	e := newTestEngine()
	p := e.AddProc(0)
	var msg any
	var end Time
	e.Spawn(p, "parent", func(tk *Task) {
		tk.Advance(10 * us)
		func() {
			defer func() { msg = recover() }()
			e.Spawn(p, "child", func(*Task) {})
		}()
		tk.Advance(10 * us)
		end = tk.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if msg != "sim: Spawn during Run" {
		t.Errorf("Spawn during Run recovered %v, want the engine's panic", msg)
	}
	if end != 20*us || len(e.tasks) != 1 {
		t.Errorf("parent finished at %v with %d tasks, want 20µs and 1", end, len(e.tasks))
	}
}

func TestLIFODispatchOrder(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	p.SetLIFO(true)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(p, name, func(tk *Task) {
			tk.Advance(1 * us)
			order = append(order, name)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// LIFO: the most recently spawned (readied) task runs first.
	if fmt.Sprint(order) != "[c b a]" {
		t.Errorf("LIFO order = %v, want [c b a]", order)
	}
	if p.ID() != 0 {
		t.Errorf("proc id = %d, want 0", p.ID())
	}
}

func TestTaskAccessors(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	task := e.Spawn(p, "named", func(tk *Task) { tk.Advance(us) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if task.Name() != "named" || task.ID() != 0 || task.Proc() != p {
		t.Errorf("accessors: name=%q id=%d", task.Name(), task.ID())
	}
	if len(e.Procs()) != 1 {
		t.Errorf("Procs() = %d, want 1", len(e.Procs()))
	}
}
