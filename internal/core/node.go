package core

import (
	"sort"

	"cvm/internal/memsim"
	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// node holds one processor's DSM state: its page table, interval
// knowledge, lock and barrier state, and counters.
type node struct {
	sys  *System
	id   int
	proc *sim.Proc
	mem  memsim.System

	// Consistency state. The page table is a lazily-materialized sharded
	// directory (see pagetable.go), so per-node memory tracks the working
	// set, not the address space. The sync-object maps are created lazily
	// on first use — a run that never touches a lock pays nothing for the
	// lock table.
	vt             VClock
	curIdx         int32                // index of this node's next interval
	shards         []*pageShard         // sparse page directory root, sized at Start
	totalPages     int                  // address-space size in pages
	shardCount     int                  // shards materialized so far
	pool           bufPool              // page/twin buffer slabs (see pagetable.go)
	diffScratch    Runs                 // MakeDiff's reused scan buffers (see closeInterval)
	dirty          []PageID             // pages written in the open interval
	intervals      [][]*IntervalInfo    // known intervals, per node, idx-ascending
	locks          map[int]*lockState   // lazily created
	barriers       map[int]*nodeBarrier // lazily created
	reduces        map[int]*nodeReduce  // lazily created
	swdir          map[PageID]*swDir    // single-writer directory (manager side), lazily created
	csp            csPool               // recycled spilled copyset bitsets
	csScratch      []int32              // copyset fan-out scratch (swServe)
	barrierSentIdx int32                // own intervals already shipped to the barrier manager

	// In-flight remote request counts for outstanding-request sampling.
	inFlightFaults int
	inFlightLocks  int

	// Adaptive-coherence state (see adapt.go, migrate.go); all nil/zero
	// overhead when Config.Adapt and Config.Migrate are off. resident is
	// the node's expected barrier population (ThreadsPerNode until a
	// migration order changes it); residents lists the threads currently
	// homed here (maintained only under Migrate, from this node's engine
	// context); pmode holds per-page coherence modes; adaptObs counts
	// this epoch's remote faults per page for the classifier; adaptHits
	// counts the faults satisfied from pushed-update caches (the
	// controller's update-mode usefulness signal); pendingPush queues
	// update-mode pushes between closeInterval and the flush after the
	// synchronization send.
	resident    int
	residents   []*Thread
	pmode       map[PageID]*pageAdapt
	adaptObs    map[PageID]int32
	adaptHits   map[PageID]int32
	pendingPush []pendingPush

	threads []Thread
	stats   NodeStats

	// met is this node's metrics view (nil when metrics are off); hot
	// paths guard every observation with one nil check, like sys.tracer.
	met *metrics.NodeMetrics
}

func newNode(sys *System, id int, proc *sim.Proc) *node {
	n := &node{
		sys:  sys,
		id:   id,
		proc: proc,
	}
	n.mem.Init(sys.cfg.Mem)
	if sys.met != nil {
		n.met = sys.met.Node(id)
	}
	proc.SetHookHandler(n)
	return n
}

// OnSwitch implements sim.Hooks.
func (n *node) OnSwitch(from, to *sim.Task) {
	n.stats.ThreadSwitches++
	// Scheduler code plus the incoming thread's code phase touch the
	// I-TLB; this is the synthetic instruction-locality model (Figure 2).
	n.mem.InstrTouch(schedCodePage)
	th := n.sys.threadOf(to)
	if th != nil {
		th.touchPhaseCode()
	}
	if tr := n.sys.tracer; tr != nil {
		fromGid := int64(-1)
		if f := n.sys.threadOf(from); f != nil {
			fromGid = int64(f.gid)
		}
		toGid := int32(-1)
		if th != nil {
			toGid = int32(th.gid)
		}
		tr.Emit(trace.Event{T: n.proc.Clock(), Kind: trace.KindThreadSwitch,
			Node: int32(n.id), Thread: toGid, Arg: fromGid})
	}
}

// OnIdleEnd implements sim.Hooks.
func (n *node) OnIdleEnd(start, end sim.Time, task *sim.Task) {
	d := end - start
	switch task.BlockReason() {
	case ReasonFault:
		n.stats.FaultWait += d
		if nm := n.met; nm != nil {
			nm.FaultIdle.Observe(int64(d))
			n.sys.met.TimelineAdd(n.id, start, end, metrics.TimelineFault)
		}
	case ReasonLock:
		n.stats.LockWait += d
		if nm := n.met; nm != nil {
			nm.LockIdle.Observe(int64(d))
			n.sys.met.TimelineAdd(n.id, start, end, metrics.TimelineLock)
		}
	case ReasonBarrier:
		n.stats.BarrierWait += d
		if nm := n.met; nm != nil {
			nm.BarrierIdle.Observe(int64(d))
			n.sys.met.TimelineAdd(n.id, start, end, metrics.TimelineBarrier)
		}
	}
}

// OnSlice implements sim.Hooks.
func (n *node) OnSlice(task *sim.Task, start, end sim.Time) {
	n.stats.UserTime += end - start
	if nm := n.met; nm != nil {
		nm.UserBurst.Observe(int64(end - start))
		nm.RunQueue.Observe(int64(n.proc.QueueLen()))
		n.sys.met.TimelineAdd(n.id, start, end, metrics.TimelineUser)
	}
}

// ensureIntervals creates the per-node interval table on first use; a
// run that never closes an interval (no synchronization) never pays for
// it.
func (n *node) ensureIntervals() {
	if n.intervals == nil {
		n.intervals = make([][]*IntervalInfo, n.sys.cfg.Nodes)
	}
}

// markDirty adds pg to the open interval's dirty list.
func (n *node) markDirty(p *page) {
	if !p.openDirty {
		p.openDirty = true
		n.dirty = append(n.dirty, p.id)
	}
}

// closeInterval ends the open interval if it modified any pages, emitting
// write notices and downgrading dirty pages to read-only so the next
// interval's writes fault into the dirty list again. It is called at
// release operations (lock release, barrier arrival) in thread context;
// the per-page protection changes charge the paper's mprotect cost to t.
func (n *node) closeInterval(t *Thread) {
	if len(n.dirty) == 0 {
		return
	}
	n.ensureIntervals()
	n.curIdx++
	n.vt[n.id] = n.curIdx
	info := &IntervalInfo{
		Node:  n.id,
		Idx:   n.curIdx,
		VT:    n.vt.Clone(),
		Pages: append([]PageID(nil), n.dirty...),
	}
	n.intervals[n.id] = append(n.intervals[n.id], info)

	// Create this interval's diffs eagerly (as TreadMarks does at barrier
	// arrival): every diff then carries exact per-interval attribution,
	// which keeps diff propagation inside the causally-closed write-notice
	// set — a requester is only ever sent diffs for intervals it holds
	// write notices for, so cross-fault application order can never
	// regress a byte. The page-length comparison and the protection
	// downgrade are charged to the closing thread.
	// Each diff scans into the node's scratch and keeps an exact-size
	// clone: two allocations per diff, none per run.
	for _, pg := range n.dirty {
		p := n.pageAt(pg)
		p.openDirty = false
		n.diffScratch = MakeDiff(n.diffScratch, p.twin, p.data)
		d := &Diff{
			Page: pg,
			Node: n.id,
			Idx:  n.curIdx,
			VT:   info.VT,
			Runs: n.diffScratch.Clone(),
		}
		n.storeDiff(d)
		if nm := n.met; nm != nil {
			nm.DiffBytes.Observe(int64(d.WireBytes(n.sys.cfg.CompressDiffs)))
		}
		if ad := n.adaptOf(pg); ad != nil && ad.mode == ModeMWUpd && len(ad.subs) > 0 {
			n.queuePush(p, d, ad)
		}
		n.releaseTwin(p)
		if t != nil {
			t.task.Advance(n.sys.cfg.DiffCreateCost +
				n.mem.AccessRange(uint64(pg)<<n.sys.pageShift, n.sys.cfg.PageSize))
		}
		if tr := n.sys.tracer; tr != nil {
			ev := trace.Event{Kind: trace.KindDiffCreate, Node: int32(n.id),
				Thread: -1, Page: int32(pg),
				Arg: int64(d.WireBytes(n.sys.cfg.CompressDiffs)), Aux: int64(n.curIdx)}
			if t != nil {
				ev.T = t.task.Now()
				ev.Thread = int32(t.gid)
			} else {
				ev.T = n.proc.LocalNow()
			}
			tr.Emit(ev)
		}
		if p.state == PageReadWrite {
			p.state = PageReadOnly
			if t != nil {
				t.task.Advance(n.sys.cfg.MprotectCost)
			}
		}
	}
	n.dirty = n.dirty[:0]
}

func (n *node) storeDiff(d *Diff) {
	p := n.pageAt(d.Page)
	p.diffs = append(p.diffs, d)
	n.stats.DiffsCreated++
}

// newInfosSince returns this node's knowledge of every interval (its own
// and others') not covered by the given vector time, ordered by node then
// index. It is the write-notice payload of lock grants and barrier
// messages.
func (n *node) newInfosSince(vt VClock) []*IntervalInfo {
	if n.intervals == nil {
		return nil
	}
	var out []*IntervalInfo
	for nodeID := 0; nodeID < n.sys.cfg.Nodes; nodeID++ {
		infos := n.intervals[nodeID]
		// Binary search: infos is ascending by Idx.
		i := sort.Search(len(infos), func(i int) bool { return infos[i].Idx > vt[nodeID] })
		out = append(out, infos[i:]...)
	}
	return out
}

// applyInfos merges received interval knowledge: records the intervals,
// invalidates pages named by fresh write notices, and joins the sender's
// vector time. It runs at acquire-type operations (lock grant, barrier
// release) in either thread or engine context.
func (n *node) applyInfos(infos []*IntervalInfo, senderVT VClock) {
	for _, info := range infos {
		if info.Node == n.id || info.Idx <= n.vt[info.Node] {
			continue // own interval or already known
		}
		n.ensureIntervals()
		n.intervals[info.Node] = append(n.intervals[info.Node], info)
		n.vt[info.Node] = info.Idx
		for _, pg := range info.Pages {
			p := n.pageAt(pg)
			w := p.writer(info.Node)
			if info.Idx > w.wanted {
				w.wanted = info.Idx
			}
			if w.applied < w.wanted {
				p.state = PageInvalid
			}
		}
	}
	if senderVT != nil {
		n.vt.Merge(senderVT)
	}
}

// serveDiffRequest handles a remote data request (engine context): it
// replies with the stored diffs for intervals in (from, to]. All such
// diffs exist — they were created when the intervals closed — so the
// reply never reaches past the requester's write-notice horizon.
// Intervals in the range that did not dirty the page simply have no diff.
func (n *node) serveDiffRequest(pg PageID, from, to int32, reply func(ds []*Diff, bytes int, serviceTime sim.Time)) {
	stored := n.pageAt(pg).diffs
	i := sort.Search(len(stored), func(i int) bool { return stored[i].Idx > from })
	j := sort.Search(len(stored), func(j int) bool { return stored[j].Idx > to })
	ds := stored[i:j]
	compress := n.sys.cfg.CompressDiffs
	bytes := 16
	for _, d := range ds {
		bytes += d.WireBytes(compress)
	}
	reply(ds, bytes, n.sys.cfg.DiffServeCost)
}

// sortDiffs orders diffs for application into a linear extension of the
// happens-before partial order, so a causally-later diff is always applied
// after every diff it supersedes. Happens-before is a partial order, NOT a
// strict weak ordering, so a comparison sort cannot be used. Instead the
// diffs are merged per creator node (each node's diffs are already
// causally ordered by interval index): repeatedly emit the queue head that
// no other head happens-before, breaking ties among concurrent heads by
// node ID. Concurrent diffs modify disjoint bytes in race-free programs,
// so their mutual order is immaterial.
func sortDiffs(ds []*Diff) {
	if len(ds) < 2 {
		return
	}
	queues := make(map[int][]*Diff)
	var nodeIDs []int
	for _, d := range ds {
		if _, ok := queues[d.Node]; !ok {
			nodeIDs = append(nodeIDs, d.Node)
		}
		queues[d.Node] = append(queues[d.Node], d)
	}
	sort.Ints(nodeIDs)
	for _, id := range nodeIDs {
		q := queues[id]
		sort.Slice(q, func(i, j int) bool { return q[i].Idx < q[j].Idx })
	}

	out := ds[:0]
	for remaining := len(ds); remaining > 0; remaining-- {
		emit := -1
		for _, id := range nodeIDs {
			q := queues[id]
			if len(q) == 0 {
				continue
			}
			safe := true
			for _, other := range nodeIDs {
				oq := queues[other]
				if other == id || len(oq) == 0 {
					continue
				}
				if oq[0].VT.Before(q[0].VT) {
					safe = false
					break
				}
			}
			if safe {
				emit = id
				break
			}
		}
		if emit < 0 {
			// Unreachable for well-formed vector times; fall back to
			// the lowest node to guarantee progress.
			for _, id := range nodeIDs {
				if len(queues[id]) > 0 {
					emit = id
					break
				}
			}
		}
		out = append(out, queues[emit][0])
		queues[emit] = queues[emit][1:]
	}
}

// schedCodePage is the synthetic I-TLB page of the thread scheduler.
const schedCodePage = 1 << 40
