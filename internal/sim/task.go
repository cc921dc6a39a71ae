package sim

import "runtime"

type taskState uint8

const (
	taskReady taskState = iota
	taskRunning
	taskBlocked
	taskDone
)

type reportKind uint8

const (
	reportYield   reportKind = iota // horizon crossed; task remains current
	reportRequeue                   // voluntary yield; task to back of run queue
	reportBlock                     // task blocked awaiting Wake
	reportDone                      // task function returned
)

type report struct {
	task *Task
	kind reportKind
}

type grant struct {
	horizon Time
	poison  bool // engine shutting down: task must exit
}

// Task is a green thread running on a Proc. Task methods must be called
// only from the task's own goroutine while it holds the execution grant
// (i.e. from within the function passed to Engine.Spawn).
type Task struct {
	eng  *Engine
	proc *Proc
	id   int
	name string

	resume  chan grant
	horizon Time
	state   taskState
	reason  Reason // why the task last blocked
}

// ID reports the task's engine-wide index, assigned in spawn order from 0.
func (t *Task) ID() int { return t.id }

// Name reports the diagnostic name given at spawn.
func (t *Task) Name() string { return t.name }

// Proc reports the processor the task runs on.
func (t *Task) Proc() *Proc { return t.proc }

// Now reports the task's current virtual time (its processor clock).
func (t *Task) Now() Time { return t.proc.clock }

// BlockReason reports why the task last blocked (ReasonNone initially).
func (t *Task) BlockReason() Reason { return t.reason }

// Advance charges d of computation to the task, advancing its processor
// clock. If the new clock crosses the engine's causality horizon the task
// yields so pending earlier events are applied before the task observes any
// further state.
func (t *Task) Advance(d Time) {
	t.proc.charge(d)
	for t.proc.clock > t.horizon {
		t.handoff(report{t, reportYield})
	}
}

// Block suspends the task until Engine.Wake, recording reason for idle-time
// attribution. It returns once the scheduler grants the task again; the
// processor clock at return reflects wake time plus any switch cost.
func (t *Task) Block(reason Reason) {
	t.reason = reason
	t.state = taskBlocked
	t.handoff(report{t, reportBlock})
	t.state = taskRunning
}

// Yield moves the task to the back of its processor's run queue, letting
// other local ready tasks run first. It models CVM's explicit
// application-requested thread switch.
func (t *Task) Yield() {
	t.state = taskReady
	t.handoff(report{t, reportRequeue})
	t.state = taskRunning
}

// Schedule runs fn in engine context at absolute virtual time at, which
// must not precede the task's clock. The event lands on the task's own
// processor — cross-proc effects go through the window hook's deferral
// layer — and the task's horizon is lowered so it will not run past the
// new event before the event is applied.
func (t *Task) Schedule(at Time, fn func()) {
	if at < t.proc.clock {
		at = t.proc.clock
	}
	t.proc.schedule(at, fn)
	t.horizon = minTime(t.horizon, at)
}

// handoff returns control to the engine and waits for the next grant.
func (t *Task) handoff(r report) {
	t.proc.reports <- r
	g := <-t.resume
	if g.poison {
		runtime.Goexit()
	}
	t.horizon = g.horizon
}

// start is the goroutine body wrapping the task function.
func (t *Task) start(r Runner) {
	g := <-t.resume
	if g.poison {
		return
	}
	t.horizon = g.horizon
	t.state = taskRunning
	r.RunTask(t)
	t.state = taskDone
	t.proc.reports <- report{t, reportDone}
}
