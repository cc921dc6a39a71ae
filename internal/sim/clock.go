package sim

import "time"

// Clock abstracts "what time is it" for code that runs on both the
// simulated cluster and a real one. The discrete-event engine keeps
// virtual clocks (Proc.Clock, Task.Now); the real-execution runtime
// keeps wall time. Code that only reports durations — run reports,
// stats, timeouts in the control plane — takes a Clock so it works over
// either substrate.
//
// A Clock reports Time in nanoseconds since its epoch. Virtual clocks
// are deterministic and advance only when the engine dispatches work;
// wall clocks are monotonic and advance on their own, so nothing built
// on WallClock can promise bit-reproducible timing.
type Clock interface {
	// Now reports nanoseconds since the clock's epoch.
	Now() Time
	// IsVirtual reports whether time is simulated (deterministic) or
	// real (monotonic wall time).
	IsVirtual() bool
}

// EngineClock adapts an Engine's virtual time to the Clock interface:
// the latest local time any processor has reached. Its epoch is the
// simulation start (T=0). Read it outside Run; during a window the
// processors advance concurrently.
type EngineClock struct{ Eng *Engine }

// Now reports the latest virtual time reached by any processor.
func (c EngineClock) Now() Time {
	var now Time
	for _, p := range c.Eng.procs {
		now = maxTime(now, maxTime(p.now, p.clock))
	}
	return now
}

// IsVirtual reports true: engine time is simulated.
func (c EngineClock) IsVirtual() bool { return true }

// WallClock is a real monotonic clock. Its epoch is fixed at
// construction, so two WallClocks are not comparable — durations within
// one are.
type WallClock struct{ t0 time.Time }

// NewWallClock returns a wall clock whose epoch is now.
func NewWallClock() *WallClock { return &WallClock{t0: time.Now()} }

// Now reports monotonic nanoseconds since the clock's construction.
func (c *WallClock) Now() Time { return Time(time.Since(c.t0)) }

// IsVirtual reports false: wall time is real and non-reproducible.
func (c *WallClock) IsVirtual() bool { return false }
