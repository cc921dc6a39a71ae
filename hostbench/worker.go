package main

import "cvm"

// op names one traced Worker method. Ops below opReadF64 are pure
// getters: they are counted but not timed, because they read a field and can
// neither block nor switch tasks, and stamping them would only add
// tracing overhead to the application's share.
type op uint8

const (
	opGlobalID op = iota
	opLocalID
	opNodeID
	opThreads
	opNodes
	opLocalThreads
	opNow

	// Access path.
	opReadF64
	opWriteF64
	opReadI64
	opWriteI64
	opReadRangeF64
	opWriteRangeF64
	opFillF64
	opReadRangeI64
	opWriteRangeI64
	opFillI64
	opAddF64
	// Synchronization.
	opBarrier
	opLocalBarrier
	opLock
	opUnlock
	opReduceF64
	// Modelling calls (virtual-time charges, free on the real runtime).
	opCompute
	opYield
	opPhase
	opTouchPrivate
	opMarkSteadyState
	numOps
)

var opNames = [numOps]string{
	"GlobalID", "LocalID", "NodeID", "Threads", "Nodes", "LocalThreads", "Now",
	"ReadF64", "WriteF64", "ReadI64", "WriteI64",
	"ReadRangeF64", "WriteRangeF64", "FillF64", "ReadRangeI64", "WriteRangeI64", "FillI64", "AddF64",
	"Barrier", "LocalBarrier", "Lock", "Unlock", "ReduceF64",
	"Compute", "Yield", "Phase", "TouchPrivate", "MarkSteadyState",
}

// opSpanNames are the span names of Worker calls on the simulator; the
// real runtime's spans carry the same method names under "rt.".
var opSpanNames, rtSpanNames [numOps]string

func init() {
	for o, n := range opNames {
		opSpanNames[o] = "core." + n
		rtSpanNames[o] = "rt." + n
	}
}

func (o op) isAccess() bool { return o >= opReadF64 && o <= opAddF64 }
func (o op) isSync() bool   { return o >= opBarrier && o <= opReduceF64 }

// callRecorder observes one application thread's Worker calls: count
// for getters, enter and exit around every other call.
type callRecorder interface {
	count(o op)
	enter(o op)
	exit(o op)
}

// tracedWorker is the apps → DSM boundary: it wraps the cvm.Worker handed
// to App.Main and reports every call to its recorder. It adds no
// behaviour of its own, so the wrapped run must produce identical
// results (see the neutrality test).
type tracedWorker struct {
	w   cvm.Worker
	rec callRecorder
}

func (t *tracedWorker) GlobalID() int     { t.rec.count(opGlobalID); return t.w.GlobalID() }
func (t *tracedWorker) LocalID() int      { t.rec.count(opLocalID); return t.w.LocalID() }
func (t *tracedWorker) NodeID() int       { t.rec.count(opNodeID); return t.w.NodeID() }
func (t *tracedWorker) Threads() int      { t.rec.count(opThreads); return t.w.Threads() }
func (t *tracedWorker) Nodes() int        { t.rec.count(opNodes); return t.w.Nodes() }
func (t *tracedWorker) LocalThreads() int { t.rec.count(opLocalThreads); return t.w.LocalThreads() }
func (t *tracedWorker) Now() cvm.Time     { t.rec.count(opNow); return t.w.Now() }

func (t *tracedWorker) Compute(d cvm.Time) {
	t.rec.enter(opCompute)
	t.w.Compute(d)
	t.rec.exit(opCompute)
}

func (t *tracedWorker) Yield() {
	t.rec.enter(opYield)
	t.w.Yield()
	t.rec.exit(opYield)
}

func (t *tracedWorker) Phase(p int) {
	t.rec.enter(opPhase)
	t.w.Phase(p)
	t.rec.exit(opPhase)
}

func (t *tracedWorker) TouchPrivate(idx int) {
	t.rec.enter(opTouchPrivate)
	t.w.TouchPrivate(idx)
	t.rec.exit(opTouchPrivate)
}

func (t *tracedWorker) MarkSteadyState() {
	t.rec.enter(opMarkSteadyState)
	t.w.MarkSteadyState()
	t.rec.exit(opMarkSteadyState)
}

func (t *tracedWorker) Barrier(id int) {
	t.rec.enter(opBarrier)
	t.w.Barrier(id)
	t.rec.exit(opBarrier)
}

func (t *tracedWorker) LocalBarrier(id int) {
	t.rec.enter(opLocalBarrier)
	t.w.LocalBarrier(id)
	t.rec.exit(opLocalBarrier)
}

func (t *tracedWorker) Lock(id int) {
	t.rec.enter(opLock)
	t.w.Lock(id)
	t.rec.exit(opLock)
}

func (t *tracedWorker) Unlock(id int) {
	t.rec.enter(opUnlock)
	t.w.Unlock(id)
	t.rec.exit(opUnlock)
}

func (t *tracedWorker) ReduceF64(id int, v float64, o cvm.ReduceOp) float64 {
	t.rec.enter(opReduceF64)
	r := t.w.ReduceF64(id, v, o)
	t.rec.exit(opReduceF64)
	return r
}

func (t *tracedWorker) ReadF64(a cvm.Addr) float64 {
	t.rec.enter(opReadF64)
	v := t.w.ReadF64(a)
	t.rec.exit(opReadF64)
	return v
}

func (t *tracedWorker) WriteF64(a cvm.Addr, v float64) {
	t.rec.enter(opWriteF64)
	t.w.WriteF64(a, v)
	t.rec.exit(opWriteF64)
}

func (t *tracedWorker) ReadI64(a cvm.Addr) int64 {
	t.rec.enter(opReadI64)
	v := t.w.ReadI64(a)
	t.rec.exit(opReadI64)
	return v
}

func (t *tracedWorker) WriteI64(a cvm.Addr, v int64) {
	t.rec.enter(opWriteI64)
	t.w.WriteI64(a, v)
	t.rec.exit(opWriteI64)
}

func (t *tracedWorker) ReadRangeF64(a cvm.Addr, dst []float64) {
	t.rec.enter(opReadRangeF64)
	t.w.ReadRangeF64(a, dst)
	t.rec.exit(opReadRangeF64)
}

func (t *tracedWorker) WriteRangeF64(a cvm.Addr, src []float64) {
	t.rec.enter(opWriteRangeF64)
	t.w.WriteRangeF64(a, src)
	t.rec.exit(opWriteRangeF64)
}

func (t *tracedWorker) FillF64(a cvm.Addr, n int, v float64) {
	t.rec.enter(opFillF64)
	t.w.FillF64(a, n, v)
	t.rec.exit(opFillF64)
}

func (t *tracedWorker) ReadRangeI64(a cvm.Addr, dst []int64) {
	t.rec.enter(opReadRangeI64)
	t.w.ReadRangeI64(a, dst)
	t.rec.exit(opReadRangeI64)
}

func (t *tracedWorker) WriteRangeI64(a cvm.Addr, src []int64) {
	t.rec.enter(opWriteRangeI64)
	t.w.WriteRangeI64(a, src)
	t.rec.exit(opWriteRangeI64)
}

func (t *tracedWorker) FillI64(a cvm.Addr, n int, v int64) {
	t.rec.enter(opFillI64)
	t.w.FillI64(a, n, v)
	t.rec.exit(opFillI64)
}

func (t *tracedWorker) AddF64(a cvm.Addr, v float64) {
	t.rec.enter(opAddF64)
	t.w.AddF64(a, v)
	t.rec.exit(opAddF64)
}
