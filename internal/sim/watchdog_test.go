package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestLivelockDetected is the regression test for the futile-event
// watchdog: a self-perpetuating event chain (the shape of an unbounded
// retransmission timer) with every task blocked must fail with
// ErrDeadlock, not spin Run forever. Without the watchdog this test
// times out instead of hanging the suite.
func TestLivelockDetected(t *testing.T) {
	e := newTestEngine()
	e.SetFutileLimit(1000)
	p := e.AddProc(0)
	e.Spawn(p, "stuck", func(tk *Task) {
		tk.Block(Reason(2)) // nobody wakes it
	})
	var tick func()
	tick = func() { e.ScheduleOn(p, p.LocalNow()+5*us, tick) }
	e.ScheduleOn(p, 5*us, tick)

	done := make(chan error, 1)
	go func() { done <- e.Run() }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("Run() = %v, want ErrDeadlock", err)
		}
		if !strings.Contains(err.Error(), "livelock") {
			t.Errorf("error %q does not identify the livelock", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("engine spun on a livelocked event chain instead of detecting it")
	}
	e.Shutdown()
}

func TestFutileLimitDisabled(t *testing.T) {
	// A long but finite futile chain must complete when the watchdog is
	// generous enough; the limit is a pathology detector, not a budget.
	e := newTestEngine()
	e.SetFutileLimit(10_000)
	p := e.AddProc(0)
	var task *Task
	task = e.Spawn(p, "late", func(tk *Task) { tk.Block(Reason(1)) })
	n := 0
	var tick func()
	tick = func() {
		if n++; n == 5000 {
			e.Wake(task)
			return
		}
		e.ScheduleOn(p, p.LocalNow()+us, tick)
	}
	e.ScheduleOn(p, us, tick)
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v, want nil (wake arrived before the limit)", err)
	}
}

// TestShutdownReleasesYieldParkedTasks pins the goroutine-leak fix: a
// task parked mid-yield (state running, waiting in handoff) when Run
// fails must still be poisoned by Shutdown. The old code only released
// blocked/ready tasks and leaked the goroutine.
func TestShutdownReleasesYieldParkedTasks(t *testing.T) {
	before := runtime.NumGoroutine()

	e := newTestEngine()
	e.SetFutileLimit(500)
	p := e.AddProc(0)
	e.Spawn(p, "parked", func(tk *Task) {
		tk.Advance(100 * us) // crosses the 10µs event horizon and yields
	})
	// A zero-width event chain pinned below the task's clock: the event
	// branch wins every iteration, the task stays yield-parked, and the
	// watchdog fires.
	var tick func()
	tick = func() { e.ScheduleOn(p, p.LocalNow(), tick) }
	e.ScheduleOn(p, 10*us, tick)

	if err := e.Run(); !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run() = %v, want ErrDeadlock", err)
	}
	e.Shutdown()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("goroutines after Shutdown = %d, want <= %d (yield-parked task leaked)", got, before)
	}
}

func TestDeadlockErrNamesReasons(t *testing.T) {
	e := newTestEngine()
	e.SetReasonNamer(func(r Reason) string {
		if r == 3 {
			return "barrier"
		}
		return "?"
	})
	p := e.AddProc(0)
	e.Spawn(p, "waiter", func(tk *Task) { tk.Block(Reason(3)) })
	err := e.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run() = %v, want ErrDeadlock", err)
	}
	if !strings.Contains(err.Error(), "waiter(reason=barrier)") {
		t.Errorf("error %q does not name the blocked task's reason", err)
	}
	e.Shutdown()
}
