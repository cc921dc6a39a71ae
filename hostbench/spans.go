package main

import (
	"sync"
	"time"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/sim"
	"cvm/internal/transport"
)

// span is one call across a layer boundary. Start and End are host
// nanoseconds since the traced execution began; Parent is the index of
// the span that caused this one in the same run (-1 for none).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
}

// spanLog keeps the first max spans of a run in memory. Indices are
// assigned to every span, kept or not, so parent links stay valid; a
// paper-size run crosses the boundaries millions of times, and the
// counters, not the kept spans, carry the per-layer totals.
type spanLog struct {
	run   int32
	max   int
	spans []span
	total int64
}

func (l *spanLog) begin(name string, start int64, parent int32) int32 {
	i := int32(l.total)
	l.total++
	if len(l.spans) < l.max {
		l.spans = append(l.spans, span{Name: name, Start: start, End: -1, Parent: parent, Run: l.run})
	}
	return i
}

func (l *spanLog) end(i int32, end int64) {
	if int(i) < len(l.spans) {
		l.spans[i].End = end
	}
}

// layer is the owner of one host-time interval on the simulator.
type layer uint8

const (
	layerEngine  layer = iota // engine dispatch and task handoff between crossings
	layerApps                 // application code between a thread's return and its next call
	layerCore                 // thread-side DSM code inside a Worker call
	layerNetsim               // inside Interconnect.SendFromTask/SendFromHandler
	layerHandler              // inside a message's deliver closure
	numLayers
)

// engineOwner marks crossings made in engine context (message handlers).
const engineOwner = -1

// simTracer records the boundary crossings of one traced simulator run:
// Worker calls (apps → core), interconnect sends (core → netsim) and
// message handlers (netsim → core). On an engine that runs one task or
// handler at a time, each host-time interval between two consecutive
// crossings belongs to exactly one layer, which the crossing that opened
// it determines. The mutex only keeps the recorder race-free if the
// engine runs several OS workers; the interval attribution is then
// reported as unavailable.
type simTracer struct {
	mu  sync.Mutex
	t0  time.Time
	log spanLog

	last     int64 // host ns of the previous crossing
	cur      layer // layer running since the previous crossing
	appTask  int32 // thread whose application code runs, when cur == layerApps
	seq      int64 // crossings so far
	lastTask int32 // owner of the previous task-context crossing

	threads []simThread
	eng     []int32 // open spans in engine context: a handler and its sends

	ns              [numLayers]int64
	calls           [numOps]int64
	fastCalls       int64
	fastNs          int64
	blockedCalls    int64
	sendCalls       int64
	handlerCalls    [transport.NumClasses]int64
	handoffs        int64
	handlerSpanName [transport.NumClasses]string
}

type simThread struct {
	open      []int32 // open spans: the thread body, a Worker call, a send
	callSeq   int64   // crossing count right after the open call's entry
	callStart int64
}

func newSimTracer(threads int, run int32, maxSpans int) *simTracer {
	tr := &simTracer{threads: make([]simThread, threads), lastTask: engineOwner}
	tr.log = spanLog{run: run, max: maxSpans}
	for _, c := range transport.Classes() {
		tr.handlerSpanName[c] = "handler." + c.String()
	}
	return tr
}

// start marks the beginning of cluster.Run; the engine owns the host
// until the first thread body starts.
func (tr *simTracer) start(t0 time.Time) { tr.t0 = t0 }

// finish closes the last interval at the end of cluster.Run.
func (tr *simTracer) finish(t time.Time) {
	tr.mu.Lock()
	tr.cross(int64(t.Sub(tr.t0)), -2)
	tr.mu.Unlock()
}

// cross closes the interval since the previous crossing. entryBy is the
// thread whose call (or body end) this crossing is, or -2: an interval
// opened by a thread's return counts as application time only when the
// same thread's next call closes it.
func (tr *simTracer) cross(now int64, entryBy int32) {
	l := tr.cur
	if l == layerApps && entryBy != tr.appTask {
		l = layerEngine
	}
	tr.ns[l] += now - tr.last
	tr.last = now
	tr.seq++
}

func (tr *simTracer) taskCrossing(id int32) {
	if id != tr.lastTask {
		tr.handoffs++
		tr.lastTask = id
	}
}

func (tr *simTracer) now() int64 { return int64(time.Since(tr.t0)) }

// wrapMain wraps the thread body so every thread's Worker is traced and
// the body's own start and end count as crossings.
func (tr *simTracer) wrapMain(main func(cvm.Worker)) func(cvm.Worker) {
	return func(w cvm.Worker) {
		id := int32(w.GlobalID())
		tr.bodyStart(id)
		main(&tracedWorker{w: w, rec: &simRecorder{tr: tr, id: id}})
		tr.bodyEnd(id)
	}
}

func (tr *simTracer) bodyStart(id int32) {
	tr.mu.Lock()
	now := tr.now()
	tr.cross(now, -2)
	tr.taskCrossing(id)
	th := &tr.threads[id]
	th.open = append(th.open[:0], tr.log.begin("apps.Main", now, -1))
	tr.cur, tr.appTask = layerApps, id
	tr.mu.Unlock()
}

func (tr *simTracer) bodyEnd(id int32) {
	tr.mu.Lock()
	now := tr.now()
	tr.cross(now, id)
	tr.taskCrossing(id)
	th := &tr.threads[id]
	tr.log.end(th.open[0], now)
	th.open = th.open[:0]
	tr.cur = layerEngine
	tr.mu.Unlock()
}

// simRecorder is one thread's view of the shared simTracer.
type simRecorder struct {
	tr *simTracer
	id int32
}

func (r *simRecorder) count(o op) {
	r.tr.mu.Lock()
	r.tr.calls[o]++
	r.tr.mu.Unlock()
}

func (r *simRecorder) enter(o op) {
	tr := r.tr
	tr.mu.Lock()
	now := tr.now()
	tr.cross(now, r.id)
	tr.taskCrossing(r.id)
	th := &tr.threads[r.id]
	th.open = append(th.open, tr.log.begin(opSpanNames[o], now, th.open[len(th.open)-1]))
	th.callSeq, th.callStart = tr.seq, now
	tr.cur = layerCore
	tr.mu.Unlock()
}

func (r *simRecorder) exit(o op) {
	tr := r.tr
	tr.mu.Lock()
	now := tr.now()
	tr.cross(now, -2)
	tr.taskCrossing(r.id)
	th := &tr.threads[r.id]
	tr.log.end(th.open[len(th.open)-1], now)
	th.open = th.open[:len(th.open)-1]
	tr.calls[o]++
	if o.isAccess() {
		// Fast: no other crossing of any kind — no message sent, no
		// other task or handler run — between this call's entry and exit.
		if tr.seq == th.callSeq+1 {
			tr.fastCalls++
			tr.fastNs += now - th.callStart
		} else {
			tr.blockedCalls++
		}
	}
	tr.cur, tr.appTask = layerApps, r.id
	tr.mu.Unlock()
}

// sendEnter opens a netsim send span for owner (a thread, or engineOwner
// for a handler's send) and returns its index.
func (tr *simTracer) sendEnter(owner int32, name string) int32 {
	tr.mu.Lock()
	now := tr.now()
	tr.cross(now, -2)
	stack := &tr.eng
	if owner != engineOwner {
		tr.taskCrossing(owner)
		stack = &tr.threads[owner].open
	}
	parent := int32(-1)
	if n := len(*stack); n > 0 {
		parent = (*stack)[n-1]
	}
	i := tr.log.begin(name, now, parent)
	*stack = append(*stack, i)
	tr.sendCalls++
	tr.cur = layerNetsim
	tr.mu.Unlock()
	return i
}

func (tr *simTracer) sendExit(owner int32) {
	tr.mu.Lock()
	now := tr.now()
	tr.cross(now, -2)
	stack := &tr.eng
	tr.cur = layerHandler
	if owner != engineOwner {
		tr.taskCrossing(owner)
		stack = &tr.threads[owner].open
		tr.cur = layerCore
	}
	tr.log.end((*stack)[len(*stack)-1], now)
	*stack = (*stack)[:len(*stack)-1]
	tr.mu.Unlock()
}

// wrapDeliver times a message's handler; the send that carried the
// message is the handler span's parent.
func (tr *simTracer) wrapDeliver(send int32, class core.MsgClass, deliver func()) func() {
	return func() {
		tr.mu.Lock()
		now := tr.now()
		tr.cross(now, -2)
		tr.eng = append(tr.eng, tr.log.begin(tr.handlerSpanName[class], now, send))
		tr.handlerCalls[class]++
		tr.cur = layerHandler
		tr.mu.Unlock()

		deliver()

		tr.mu.Lock()
		now = tr.now()
		tr.cross(now, -2)
		tr.log.end(tr.eng[len(tr.eng)-1], now)
		tr.eng = tr.eng[:len(tr.eng)-1]
		tr.cur = layerEngine
		tr.mu.Unlock()
	}
}

// tracedNet is the core → netsim boundary: installed with
// System.SetInterconnect around the simulated network before the run.
type tracedNet struct {
	core.Interconnect
	tr *simTracer
}

func (n *tracedNet) SendFromTask(t *sim.Task, from, to core.NodeID, class core.MsgClass, bytes int, deliver func()) {
	// A thread's task ID equals its global thread ID (core spawns
	// threads in global-ID order).
	owner := int32(t.ID())
	i := n.tr.sendEnter(owner, "netsim.SendFromTask")
	n.Interconnect.SendFromTask(t, from, to, class, bytes, n.tr.wrapDeliver(i, class, deliver))
	n.tr.sendExit(owner)
}

func (n *tracedNet) SendFromHandler(from, to core.NodeID, class core.MsgClass, bytes int, deliver func()) {
	i := n.tr.sendEnter(engineOwner, "netsim.SendFromHandler")
	n.Interconnect.SendFromHandler(from, to, class, bytes, n.tr.wrapDeliver(i, class, deliver))
	n.tr.sendExit(engineOwner)
}

// metrics reports the traced per-layer figures. With several engine
// workers the interval rule does not hold, so the figures derived from
// it are left out rather than reported wrong.
func (tr *simTracer) metrics(parallel bool) map[string]float64 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var all, access, syncCalls int64
	for o, n := range tr.calls {
		all += n
		if op(o).isAccess() {
			access += n
		}
		if op(o).isSync() {
			syncCalls += n
		}
	}
	m := map[string]float64{
		"apps.worker_calls":          float64(all),
		"core.access_calls":          float64(access),
		"core.sync_calls":            float64(syncCalls),
		"core.handler_calls.barrier": float64(tr.handlerCalls[transport.ClassBarrier]),
		"core.handler_calls.lock":    float64(tr.handlerCalls[transport.ClassLock]),
		"core.handler_calls.diff":    float64(tr.handlerCalls[transport.ClassDiff]),
		"netsim.send_calls":          float64(tr.sendCalls),
	}
	if parallel {
		return m
	}
	var dsm int64
	for l, ns := range tr.ns {
		if layer(l) != layerApps {
			dsm += ns
		}
	}
	m["apps.self_s"] = float64(tr.ns[layerApps]) / 1e9
	m["core.dsm_s"] = float64(dsm) / 1e9
	m["core.handler_s"] = float64(tr.ns[layerHandler]) / 1e9
	m["netsim.send_s"] = float64(tr.ns[layerNetsim]) / 1e9
	m["core.access_blocked_calls"] = float64(tr.blockedCalls)
	if tr.fastCalls > 0 {
		m["core.access_fast_ns"] = float64(tr.fastNs) / float64(tr.fastCalls)
	}
	m["sim.handoffs"] = float64(tr.handoffs)
	return m
}
