package sim

import "testing"

func TestInjectPauseDisplacesCompute(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	p.InjectPause(50*us, 150*us)
	var end Time
	e.Spawn(p, "t", func(tk *Task) {
		tk.Advance(100 * us)
		end = tk.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 50µs of compute runs before the pause, the node sits out 100µs, and
	// the remaining 50µs lands after the window: done at 200µs.
	if end != 200*us {
		t.Errorf("task finished at %v, want 200µs", end)
	}
}

func TestInjectPauseChainDisplacesAcrossWindows(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	// Inserted out of order on purpose: the schedule must sort itself.
	p.InjectPause(120*us, 170*us)
	p.InjectPause(50*us, 100*us)
	var end Time
	e.Spawn(p, "t", func(tk *Task) {
		tk.Advance(100 * us)
		end = tk.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 50 compute + 50 pause + 20 compute + 50 pause + 30 compute = 200µs.
	// The second window only intersects the charge because the first
	// displaced it — the scan must honor the updated end.
	if end != 200*us {
		t.Errorf("task finished at %v, want 200µs", end)
	}
}

func TestInjectSlowdownDilatesCompute(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	p.InjectSlowdown(0, Second, 2.0)
	var mid, end Time
	e.Spawn(p, "t", func(tk *Task) {
		tk.Advance(100 * us)
		mid = tk.Now()
		tk.Advance(50 * us)
		end = tk.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if mid != 200*us || end != 300*us {
		t.Errorf("clocks = %v, %v, want 200µs, 300µs", mid, end)
	}
}

func TestInjectSlowdownOnlyInsideWindow(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	p.InjectSlowdown(100*us, 200*us, 3.0)
	var end Time
	e.Spawn(p, "t", func(tk *Task) {
		tk.Advance(100 * us) // outside: full speed, clock 100µs
		tk.Advance(20 * us)  // starts at window edge: ×3 → 60µs
		tk.Advance(40 * us)  // starts at 160µs, inside: ×3 → 120µs
		tk.Advance(10 * us)  // starts at 280µs, outside again
		end = tk.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 290*us {
		t.Errorf("task finished at %v, want 290µs", end)
	}
}

func TestInjectOverlapPanics(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	p.InjectPause(10*us, 50*us)
	defer func() {
		if recover() == nil {
			t.Error("overlapping InjectPause did not panic")
		}
	}()
	p.InjectPause(40*us, 60*us)
}

func TestInjectBadArgsPanic(t *testing.T) {
	e := newTestEngine()
	p := e.AddProc(0)
	for name, fn := range map[string]func(){
		"empty pause":      func() { p.InjectPause(50*us, 50*us) },
		"negative pause":   func() { p.InjectPause(-us, us) },
		"speedup slowdown": func() { p.InjectSlowdown(0, us, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInjectionsDeterministic(t *testing.T) {
	run := func() Time {
		e := newTestEngine()
		p := e.AddProc(8 * us)
		p.InjectPause(30*us, 90*us)
		p.InjectSlowdown(200*us, 400*us, 1.5)
		var end Time
		for i := 0; i < 3; i++ {
			e.Spawn(p, "t", func(tk *Task) {
				for j := 0; j < 10; j++ {
					tk.Advance(7 * us)
					tk.Yield()
				}
				end = tk.Now()
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	first := run()
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("injected run diverged: %v vs %v", got, first)
		}
	}
}
