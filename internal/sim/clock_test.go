package sim

import (
	"testing"
	"time"
)

func TestEngineClock(t *testing.T) {
	var eng Engine
	eng.Init(1, Microsecond)
	c := EngineClock{Eng: &eng}
	if !c.IsVirtual() {
		t.Error("EngineClock.IsVirtual() = false, want true")
	}
	if c.Now() != 0 {
		t.Errorf("fresh engine clock at %v, want 0", c.Now())
	}
	eng.ScheduleOn(eng.AddProc(0), 5*Millisecond, func() {})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 5*Millisecond {
		t.Errorf("engine clock at %v after run, want 5ms", c.Now())
	}
}

func TestWallClock(t *testing.T) {
	c := NewWallClock()
	if c.IsVirtual() {
		t.Error("WallClock.IsVirtual() = true, want false")
	}
	a := c.Now()
	if a < 0 {
		t.Errorf("wall clock went backwards: %v", a)
	}
	time.Sleep(time.Millisecond)
	b := c.Now()
	if b < a+Time(500*time.Microsecond) {
		t.Errorf("wall clock barely advanced across a 1ms sleep: %v -> %v", a, b)
	}
}
