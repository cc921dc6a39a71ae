package sim

// Reason classifies why a task blocked. The engine treats it as opaque;
// higher layers define values and use them for idle-time attribution
// (the paper's non-overlapped fault / lock / barrier wait times).
type Reason uint8

// ReasonNone is the zero Reason, used for tasks that never blocked.
const ReasonNone Reason = 0

// Hooks receives scheduling notifications for one processor. Hooks run
// in the dispatch context of that processor and must not block. Several
// processors dispatch concurrently when the engine runs more than one
// worker, so a handler shared between procs must only touch per-proc
// state.
type Hooks interface {
	// OnSwitch fires when the processor dispatches a task other than the
	// one it last ran, after the switch cost has been charged.
	OnSwitch(from, to *Task)

	// OnIdleEnd fires when an idle processor becomes runnable again.
	// The interval [start, end) was spent with no runnable task, and task
	// is the wake that ended it; its Reason attributes the wait.
	OnIdleEnd(start, end Time, task *Task)

	// OnSlice fires after every execution slice with the user-time span
	// [start, end) consumed by task (including any switch cost charged to
	// dispatch it).
	OnSlice(task *Task, start, end Time)
}

// ProcHooks is the function-valued form of Hooks; any field may be nil.
// Installing one allocates an adapter — implement Hooks directly on a
// long-lived receiver to avoid that on construction-heavy paths.
type ProcHooks struct {
	OnSwitch  func(from, to *Task)
	OnIdleEnd func(start, end Time, task *Task)
	OnSlice   func(task *Task, start, end Time)
}

// funcHooks adapts ProcHooks to the Hooks interface.
type funcHooks struct{ h ProcHooks }

func (f *funcHooks) OnSwitch(from, to *Task) {
	if f.h.OnSwitch != nil {
		f.h.OnSwitch(from, to)
	}
}

func (f *funcHooks) OnIdleEnd(start, end Time, task *Task) {
	if f.h.OnIdleEnd != nil {
		f.h.OnIdleEnd(start, end, task)
	}
}

func (f *funcHooks) OnSlice(task *Task, start, end Time) {
	if f.h.OnSlice != nil {
		f.h.OnSlice(task, start, end)
	}
}

// Proc is a simulated processor: a virtual clock plus a run queue of
// tasks, of which at most one is active. Procs are created with
// Engine.AddProc. The queue is FIFO by default; SetLIFO switches to a
// most-recently-ready discipline (the memory-conscious scheduling the
// paper suggests as future work).
type Proc struct {
	eng        *Engine
	id         int
	clock      Time
	switchCost Time
	lifo       bool
	hooks      Hooks

	current *Task   // task that continues when this proc is next granted
	lastRan *Task   // for switch-cost accounting
	runq    []*Task // ready tasks, FIFO

	idle      bool
	idleSince Time

	inj *injections // nil unless fault injections were scheduled

	// Per-proc execution state. Each proc owns a private event queue and
	// local virtual time, so its windows execute without touching any
	// engine-global state.
	reports    chan report
	events     eventQueue // pending local events
	seq        uint64     // tie-breaker for events: creation order
	now        Time       // local virtual time of the current entity
	live       int        // this proc's not-yet-finished tasks
	wakes      uint64     // wake count, for the futile-event watchdog
	futile     int        // consecutive events without a dispatch or wake
	progressed bool       // a task was dispatched or woken this window
	failure    any        // panic captured from this proc's window, if any
	futileErr  error      // livelock verdict, if any
}

// LocalNow reports the virtual time of the entity currently executing on
// p: the time of the local event being handled, or the clock at which
// the current task slice was dispatched.
func (p *Proc) LocalNow() Time { return p.now }

// schedule queues fn as a local event at virtual time at.
func (p *Proc) schedule(at Time, fn func()) {
	p.seq++
	p.events.push(&event{at: at, seq: p.seq, fn: fn})
}

// nextAt reports the earliest virtual time at which p has work: its next
// local event or its clock if a task is runnable. MaxTime means idle.
func (p *Proc) nextAt() Time {
	at := p.events.peekTime()
	if p.runnable() && p.clock < at {
		at = p.clock
	}
	return at
}

// charge advances the processor clock by a compute charge of d, mapped
// through any injected pause/slowdown windows. Only task compute is
// dilated; switch costs and wake stamps are not (the windows model the
// *node* being starved of cycles, which the DSM observes as stretched
// bursts).
func (p *Proc) charge(d Time) {
	if p.inj != nil {
		d = p.inj.dilate(p.clock, d)
	}
	p.clock += d
}

// ID reports the processor's index, assigned in creation order from 0.
func (p *Proc) ID() int { return p.id }

// Clock reports the processor's current virtual time.
func (p *Proc) Clock() Time { return p.clock }

// SetHooks installs function-valued scheduling hooks (test convenience;
// allocates an adapter).
func (p *Proc) SetHooks(h ProcHooks) { p.hooks = &funcHooks{h} }

// SetHookHandler installs a Hooks implementation directly, without the
// adapter allocation SetHooks pays.
func (p *Proc) SetHookHandler(h Hooks) { p.hooks = h }

// SetLIFO selects the run-queue discipline: when true, the most recently
// readied task is dispatched first, preserving cache and TLB state (the
// paper's §5 "approach closer to LIFO than FIFO"). Default is FIFO.
func (p *Proc) SetLIFO(lifo bool) { p.lifo = lifo }

// QueueLen reports the number of ready tasks waiting in the run queue
// (excluding the task currently selected to run). Hooks read it for
// scheduler-occupancy metrics.
func (p *Proc) QueueLen() int { return len(p.runq) }

// runnable reports whether the proc has work and is therefore a dispatch
// candidate.
func (p *Proc) runnable() bool { return p.current != nil || len(p.runq) > 0 }

// enqueue appends t to the ready queue, ending an idle period if one is in
// progress. at is the virtual time of the wake (the waking event's time, or
// the clock of the waking task).
func (p *Proc) enqueue(t *Task, at Time) {
	wasIdle := p.idle && !p.runnable()
	p.runq = append(p.runq, t)
	if wasIdle {
		p.idle = false
		p.clock = maxTime(p.clock, at)
		if p.hooks != nil {
			p.hooks.OnIdleEnd(p.idleSince, p.clock, t)
		}
	}
}

// noteBlocked records the transition to idle if nothing is runnable.
func (p *Proc) noteBlocked() {
	if !p.runnable() {
		p.idle = true
		p.idleSince = p.clock
	}
}

// dispatch ensures a current task is selected, charging the thread-switch
// cost when control moves to a different task than last ran.
func (p *Proc) dispatch() *Task {
	if p.current == nil {
		var t *Task
		if p.lifo {
			t = p.runq[len(p.runq)-1]
			p.runq[len(p.runq)-1] = nil
			p.runq = p.runq[:len(p.runq)-1]
		} else {
			t = p.runq[0]
			copy(p.runq, p.runq[1:])
			p.runq[len(p.runq)-1] = nil
			p.runq = p.runq[:len(p.runq)-1]
		}
		p.current = t
		if p.lastRan != nil && p.lastRan != t {
			p.clock += p.switchCost
			if p.hooks != nil {
				p.hooks.OnSwitch(p.lastRan, t)
			}
		}
		p.lastRan = t
	}
	return p.current
}
