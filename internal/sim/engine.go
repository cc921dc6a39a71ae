package sim

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrDeadlock is returned by Engine.Run when live tasks remain but no
// entity is runnable and no event is pending, or when the futile-event
// watchdog concludes the event queues are self-perpetuating without ever
// readying a task (a livelock — e.g. an unbounded retransmission timer
// whose receiver is gone).
var ErrDeadlock = errors.New("sim: deadlock")

// defaultFutileLimit bounds how many consecutive events may run without
// dispatching or waking any task before Run declares a livelock. Real
// workloads ready a task every handful of events; a million futile
// events is unambiguous pathology while staying cheap to count.
const defaultFutileLimit = 1 << 20

// Engine is a conservative windowed discrete-event simulator. Work is
// partitioned by Proc: each processor owns its tasks, its event queue,
// and its local virtual time, and all processors advance through a
// shared sequence of virtual-time windows.
//
//   - A window starts at W0 = min over procs of nextAt(p) — the earliest
//     pending work anywhere — and runs every proc up to W1 = W0 +
//     lookahead, exclusive. Within its window a proc interleaves its
//     local events and task slices in local-time order, events first on
//     ties.
//   - lookahead is a static lower bound on cross-proc latency, counted
//     from the instant an interaction is recorded by the deferral layer
//     (for the DSM, the netsim outboxes; not from when the sender
//     started charging overhead — a send can straddle the window
//     boundary): anything recorded at time T ≥ W0 inside the window
//     lands at its target no earlier than T + lookahead ≥ W1, i.e. at
//     or after the next window boundary. Procs therefore cannot affect
//     each other within a window, and no null messages or channel
//     clocks are needed.
//   - At the barrier the window hook runs with every proc quiescent
//     (the DSM commits deferred messages, flushes traces and applies
//     deferred resets there), then the next window opens.
//
// Every step is deterministic in the window schedule alone: W0 is a pure
// function of simulation state, per-proc execution is sequential, and
// the hook processes deferred work in fixed order. The worker count only
// changes which OS thread executes a proc's window, so results are
// byte-identical for every workers value — the invariant the determinism
// guard in internal/harness enforces.
//
// Outside Run an Engine is not safe for concurrent use. During Run a
// proc's state may be touched only from that proc's events and tasks.
type Engine struct {
	procs   []*Proc
	tasks   []*Task
	running bool

	workers    int  // OS threads executing proc windows
	lookahead  Time // window width: the cross-proc latency lower bound
	windowHook WindowHook
	wg         sync.WaitGroup // workers still executing the current window

	futileLimit int
	reasonName  func(Reason) string
}

// NewEngine returns an empty engine that runs windows lookahead wide on
// up to workers OS threads.
func NewEngine(workers int, lookahead Time) *Engine {
	e := new(Engine)
	e.Init(workers, lookahead)
	return e
}

// Init prepares e for use, replacing any previous state. It exists so an
// Engine can be embedded by value in a larger system instead of
// separately heap-allocated. lookahead must be a lower bound on the
// delay of every cross-processor interaction (for the DSM: the network's
// zero-byte one-way latency); workers must be at least 1.
func (e *Engine) Init(workers int, lookahead Time) {
	if workers < 1 {
		panic(fmt.Sprintf("sim: engine with %d workers", workers))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: engine with non-positive lookahead %v", lookahead))
	}
	*e = Engine{workers: workers, lookahead: lookahead, futileLimit: defaultFutileLimit}
}

// WindowHook applies the cross-proc work deferred during a window. The
// DSM layer uses it to commit network traffic and flush the trace
// demultiplexer; it is the only place one proc's work may schedule
// events on another proc.
type WindowHook interface {
	// CommitWindow runs after every window barrier, with the engine
	// quiescent, receiving the limit of the window just executed.
	CommitWindow(limit Time)
}

// SetWindowHook installs h to run after every window barrier.
func (e *Engine) SetWindowHook(h WindowHook) { e.windowHook = h }

// SetFutileLimit overrides the livelock watchdog threshold: the number of
// consecutive events Run may execute without any task being dispatched or
// woken before it fails with ErrDeadlock. limit <= 0 disables the
// watchdog.
func (e *Engine) SetFutileLimit(limit int) { e.futileLimit = limit }

// SetReasonNamer installs a formatter for block Reasons used in deadlock
// diagnostics. Higher layers own the Reason value space, so the engine
// delegates naming to them.
func (e *Engine) SetReasonNamer(f func(Reason) string) { e.reasonName = f }

// AddProc creates a simulated processor whose thread switches cost
// switchCost of virtual time.
func (e *Engine) AddProc(switchCost Time) *Proc {
	p := &Proc{eng: e, id: len(e.procs), switchCost: switchCost, reports: make(chan report)}
	e.procs = append(e.procs, p)
	return p
}

// Procs returns the engine's processors in creation order.
func (e *Engine) Procs() []*Proc { return e.procs }

// Runner is a task body. SpawnRunner exists alongside Spawn so a caller
// that already has a per-task object can pass it directly instead of
// allocating a closure per task.
type Runner interface {
	RunTask(t *Task)
}

// funcRunner adapts a plain function to Runner (func values are
// pointer-shaped, so the interface conversion does not allocate).
type funcRunner func(*Task)

func (f funcRunner) RunTask(t *Task) { f(t) }

// Spawn creates a task on p executing fn. It must be called before Run:
// task IDs are engine-global, so spawning from concurrently executing
// windows would make them depend on the worker schedule.
func (e *Engine) Spawn(p *Proc, name string, fn func(*Task)) *Task {
	return e.SpawnRunner(p, name, funcRunner(fn))
}

// SpawnRunner creates a task on p executing r.RunTask. Semantics match
// Spawn exactly.
func (e *Engine) SpawnRunner(p *Proc, name string, r Runner) *Task {
	if e.running {
		panic("sim: Spawn during Run")
	}
	t := &Task{
		eng:    e,
		proc:   p,
		id:     len(e.tasks),
		name:   name,
		resume: make(chan grant),
	}
	p.live++
	e.tasks = append(e.tasks, t)
	go t.start(r)
	p.enqueue(t, p.clock)
	return t
}

// ScheduleOn runs fn in engine context on p's timeline at absolute
// virtual time at (clamped to p's local time). fn runs on whichever
// worker executes p's windows. Call it before Run, from an event or task
// of p itself, or from the window hook — never for another proc from
// inside a window.
func (e *Engine) ScheduleOn(p *Proc, at Time, fn func()) {
	if at < p.now {
		at = p.now
	}
	p.schedule(at, fn)
}

// Wake makes a blocked task ready. It must be called from engine context
// (typically a message-delivery handler) executing on t's own processor;
// the wake is stamped with that processor's current time.
func (e *Engine) Wake(t *Task) { e.WakeAt(t, t.proc.now) }

// WakeAt makes a blocked task ready, stamping the wake at the given
// virtual time. Use it from task context (e.g. a thread handing a local
// lock to a local waiter) with the caller's current clock.
func (e *Engine) WakeAt(t *Task, at Time) {
	if t.state != taskBlocked {
		panic(fmt.Sprintf("sim: Wake of task %q in state %d", t.name, t.state))
	}
	t.state = taskReady
	t.proc.wakes++
	t.proc.enqueue(t, at)
}

// Migrate re-homes a blocked task onto another processor: a first-class
// scheduler action for thread migration. The task's continuation (its
// goroutine and report channel discipline) moves wholesale — the next
// Wake enqueues it on the destination's run queue and its subsequent
// grants and reports flow through the destination's dispatch loop.
//
// Call it only from engine context on the destination processor (e.g. a
// migrate-message delivery handler), and only for a blocked task: a
// running or ready task still has scheduler state on its old processor.
// Per-proc live counts are deliberately left untouched — Run sums them
// globally, so moving a task must not touch the source processor's
// accounting from another worker.
func (e *Engine) Migrate(t *Task, to *Proc) {
	if t.state != taskBlocked {
		panic(fmt.Sprintf("sim: Migrate of task %q in state %d", t.name, t.state))
	}
	if to == nil {
		panic("sim: Migrate to nil proc")
	}
	t.proc = to
}

// Run executes the simulation window by window until every spawned task
// has finished and all pending events have drained (so traffic
// accounting is complete). It returns ErrDeadlock (wrapped with
// diagnostics) if live tasks remain but nothing is runnable or pending,
// or if the futile-event watchdog detects a livelock.
func (e *Engine) Run() error {
	if e.running {
		return errors.New("sim: Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	nw := min(e.workers, len(e.procs))

	// Persistent worker pool: worker w handles procs w, w+nw, w+2nw, ...
	// for every window (stable assignment, though any assignment would
	// produce identical results). Worker 0 is the coordinator itself.
	var starts []chan Time
	for w := 1; w < nw; w++ {
		ch := make(chan Time)
		starts = append(starts, ch)
		go func(w int, ch chan Time) {
			for limit := range ch {
				for pi := w; pi < len(e.procs); pi += nw {
					e.procWindow(e.procs[pi], limit)
				}
				e.wg.Done()
			}
		}(w, ch)
	}
	defer func() {
		for _, ch := range starts {
			close(ch)
		}
	}()

	for {
		w0 := MaxTime
		live := 0
		for _, p := range e.procs {
			live += p.live
			if at := p.nextAt(); at < w0 {
				w0 = at
			}
		}
		if w0 == MaxTime {
			if live == 0 {
				return nil
			}
			return e.deadlockErr(live, "no runnable entity and no pending event")
		}
		limit := w0 + e.lookahead

		e.wg.Add(len(starts))
		for _, ch := range starts {
			ch <- limit
		}
		for pi := 0; pi < len(e.procs); pi += nw {
			e.procWindow(e.procs[pi], limit)
		}
		e.wg.Wait()

		// Propagate worker outcomes deterministically: the lowest proc
		// index wins, so a multi-proc failure reports identically at
		// every worker count. Panics (e.g. the transport's loud failure)
		// re-raise on the coordinator, where Run's caller can recover
		// them.
		progressed := false
		for _, p := range e.procs {
			if p.failure != nil {
				f := p.failure
				p.failure = nil
				panic(f)
			}
			progressed = progressed || p.progressed
		}
		for _, p := range e.procs {
			if p.futileErr != nil {
				return p.futileErr
			}
			// A task dispatched or woken anywhere restarts every proc's
			// futile count: an event chain on one proc is only a
			// livelock if the whole system has stopped moving.
			if progressed {
				p.futile = 0
			}
			p.progressed = false
		}

		if e.windowHook != nil {
			e.windowHook.CommitWindow(limit)
		}
	}
}

// procWindow runs one processor to the window limit: its local events
// and task slices interleaved in local-time order, events first on ties.
// It touches only p-local state (plus deferral-layer state owned by p),
// so any worker may execute it. Panics are captured per proc and
// re-raised by the coordinator.
func (e *Engine) procWindow(p *Proc, limit Time) {
	defer func() {
		if r := recover(); r != nil {
			p.failure = r
		}
	}()
	for {
		evAt := p.events.peekTime()
		taskAt := MaxTime
		if p.runnable() {
			taskAt = p.clock
		}
		if evAt >= limit && taskAt >= limit {
			return
		}
		if evAt <= taskAt {
			ev := p.events.pop()
			p.now = ev.at
			wakesBefore, liveBefore := p.wakes, p.live
			ev.fn()
			if p.wakes != wakesBefore || p.live != liveBefore {
				p.futile = 0
				p.progressed = true
				continue
			}
			p.futile++
			if e.futileLimit > 0 && p.futile >= e.futileLimit {
				p.futileErr = fmt.Errorf(
					"%w: livelock on proc %d: %d consecutive events without a task dispatch or wake",
					ErrDeadlock, p.id, p.futile)
				return
			}
			continue
		}
		p.futile = 0
		p.progressed = true
		e.dispatchProc(p, minTime(evAt, limit))
	}
}

// dispatchProc grants p's next task a slice bounded by horizon (the
// earlier of p's next local event and the window limit).
func (e *Engine) dispatchProc(p *Proc, horizon Time) {
	sliceStart := p.clock
	t := p.dispatch()
	p.now = p.clock

	t.resume <- grant{horizon: horizon}
	r := <-p.reports

	if r.task != t {
		panic("sim: report from unexpected task")
	}
	if p.hooks != nil && p.clock > sliceStart {
		p.hooks.OnSlice(t, sliceStart, p.clock)
	}

	switch r.kind {
	case reportYield:
		// Task crossed its horizon; it remains current and will be
		// re-granted when p next has it as its earliest work.
	case reportRequeue:
		p.current = nil
		p.runq = append(p.runq, t)
	case reportBlock:
		p.current = nil
		p.noteBlocked()
	case reportDone:
		// Keep the idle flag exact so a later wake lifts the proc clock
		// to the wake instant; a stale clock would let a woken task run
		// before the current window's floor.
		p.current = nil
		p.live--
		p.noteBlocked()
	}
}

// Shutdown releases the goroutines of any unfinished tasks. It is safe
// to call after Run returns (including on deadlock or a recovered panic)
// and at most once. Every non-done task is waiting to receive a grant —
// blocked and ready tasks in handoff/start, and yield-parked tasks
// (state taskRunning, mid-handoff) likewise — so poisoning all of them
// leaks nothing.
func (e *Engine) Shutdown() {
	for _, t := range e.tasks {
		if t.state != taskDone {
			t.resume <- grant{poison: true}
		}
	}
}

func (e *Engine) deadlockErr(live int, why string) error {
	var blocked []string
	for _, t := range e.tasks {
		if t.state == taskBlocked {
			blocked = append(blocked, fmt.Sprintf("%s(reason=%s)", t.name, e.fmtReason(t.reason)))
		}
	}
	return fmt.Errorf("%w: %s; %d tasks live, blocked: %s",
		ErrDeadlock, why, live, strings.Join(blocked, ", "))
}

func (e *Engine) fmtReason(r Reason) string {
	if e.reasonName != nil {
		return e.reasonName(r)
	}
	return fmt.Sprintf("%d", r)
}
