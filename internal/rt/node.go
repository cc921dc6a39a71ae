package rt

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"cvm"
	"cvm/internal/core"
	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// rpage is one remotely-homed page in the node cache. twin is nil while
// the copy is clean; the first write snapshots the page into twin and
// puts the page on the dirty list.
type rpage struct {
	data []byte
	twin []byte
}

// rnode is one node of the real-execution cluster: the per-node run
// token, the page cache, the home (master) copies of pages this node
// owns, and — when this node is a manager — lock, barrier, and
// reduction state.
//
// Lock ordering: tok > hmu > pmu. Workers run holding tok and may take
// hmu (self-homed access, sync arrival) and pmu (request registration);
// the dispatcher takes hmu and pmu but never tok, so a worker blocked on
// a reply can never deadlock the goroutine that delivers it.
type rnode struct {
	c       *Cluster
	conn    transport.Conn
	self    int
	nodes   int
	threads int // per node

	// tok is the run token: application code and the cache are touched
	// only while holding it. Blocking protocol operations release it, so
	// co-located threads multiplex exactly as under the simulator's
	// cooperative scheduler.
	tok   sync.Mutex
	cache map[core.PageID]*rpage
	dirty []core.PageID // pages in cache with a twin
	// diffScratch holds MakeDiff's reused scan buffers and wireScratch
	// the reused encode buffer: a flush encodes the runs from one into
	// the other and sends an exact-size copy, so a diff allocates only
	// its payload.
	diffScratch core.Runs
	wireScratch []byte
	// epoch is bumped by invalidate; stale fetches re-request. Writes
	// happen under tok, but Status reads it without, hence atomic.
	epoch atomic.Uint64

	// hmu guards the master copies, manager state, and per-node sync
	// state shared with the dispatcher.
	hmu    sync.Mutex
	master map[core.PageID][]byte
	locks  map[uint32]*lockState
	mbar   map[uint32]int // manager barrier: node arrivals
	mred   map[uint32]*redManager
	nbar   map[uint32]*nodeBar
	nred   map[uint32]*nodeRed
	nlbar  map[uint32]*nodeBar // local barriers (no manager side)

	// doneCh is closed when the completion rendezvous releases: every
	// node's threads have finished and no more requests will arrive.
	doneCh chan struct{}

	pmu     sync.Mutex
	pending map[uint32]chan []byte
	reqSeq  atomic.Uint32

	failMu  sync.Mutex
	failErr error
	failCh  chan struct{}

	clock *sim.WallClock
	dispd chan struct{} // dispatcher exited

	// Observability. met and tracer are nil unless the run asked for
	// them; tstate (one atomic per local thread) always tracks worker
	// states for Status. metMu is held around every observation into
	// this node's shard of met (see observe).
	met    *metrics.Registry
	metMu  sync.Mutex
	tracer *lockedTracer
	tstate []atomic.Int32
}

func newNode(c *Cluster, conn transport.Conn, clock *sim.WallClock, tracer *lockedTracer) *rnode {
	return &rnode{
		c:       c,
		conn:    conn,
		self:    int(conn.Self()),
		nodes:   c.cfg.Nodes,
		threads: c.cfg.ThreadsPerNode,
		cache:   make(map[core.PageID]*rpage),
		master:  make(map[core.PageID][]byte),
		locks:   make(map[uint32]*lockState),
		mbar:    make(map[uint32]int),
		mred:    make(map[uint32]*redManager),
		nbar:    make(map[uint32]*nodeBar),
		nred:    make(map[uint32]*nodeRed),
		nlbar:   make(map[uint32]*nodeBar),
		doneCh:  make(chan struct{}),
		pending: make(map[uint32]chan []byte),
		failCh:  make(chan struct{}),
		clock:   clock,
		dispd:   make(chan struct{}),
		met:     c.cfg.Metrics,
		tracer:  tracer,
		tstate:  make([]atomic.Int32, c.cfg.ThreadsPerNode),
	}
}

// setState publishes worker w's scheduling state for Status.
func (n *rnode) setState(w *Worker, s int32) { n.tstate[w.lid].Store(s) }

// home reports the node holding page pg's master copy.
func (n *rnode) home(pg core.PageID) int { return int(pg) % n.nodes }

// masterPage returns pg's master copy, zero-filled on first touch.
// Caller holds hmu.
func (n *rnode) masterPage(pg core.PageID) []byte {
	m := n.master[pg]
	if m == nil {
		m = make([]byte, n.c.cfg.PageSize)
		n.master[pg] = m
	}
	return m
}

// run executes this node's threads to completion: it starts the
// dispatcher, spawns ThreadsPerNode workers multiplexed by the run
// token, and after they finish holds the node's pages available until
// every other node is done too.
func (n *rnode) run(main func(cvm.Worker)) error {
	go n.dispatch()

	var wg sync.WaitGroup
	for lid := 0; lid < n.threads; lid++ {
		w := &Worker{n: n, lid: lid, gid: n.self*n.threads + lid}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(rtAbort); !ok {
						panic(r)
					}
				}
				n.setState(w, tsDone)
				n.tok.Unlock()
			}()
			n.tok.Lock()
			n.setState(w, tsRunning)
			main(w)
		}()
	}
	wg.Wait()

	// Completion rendezvous: a node-level barrier on a reserved id keeps
	// this node's master pages reachable until every peer has finished.
	if err := n.failure(); err == nil {
		if n.self == 0 {
			n.barArrive(doneBarrier)
		} else {
			n.send(0, msgBarArrive, putU32(nil, doneBarrier))
		}
		select {
		case <-n.doneCh:
		case <-n.failCh:
		}
	}
	return n.failure()
}

// dispatch is the node's message pump: it serves page and diff requests
// against the master copies, runs manager-side synchronization, and
// routes replies back to blocked workers. It never takes the run token.
func (n *rnode) dispatch() {
	defer close(n.dispd)
	for {
		m, err := n.conn.Recv()
		if err != nil {
			select {
			case <-n.doneCh: // clean shutdown: the run is over
			default:
				n.setFail(err)
			}
			return
		}
		n.handle(m)
	}
}

func (n *rnode) handle(m transport.Message) {
	p := m.Payload
	if int(m.Type) < len(minPayload) && len(p) < minPayload[m.Type] ||
		m.Type == msgPageRep && len(p) != 8+n.c.cfg.PageSize {
		n.setFail(fmt.Errorf("malformed message type %d from node %d: %d-byte payload",
			m.Type, m.From, len(p)))
		return
	}
	switch m.Type {
	case msgPageReq:
		reqID, pg := u32(p), core.PageID(u32(p[4:]))
		n.hmu.Lock()
		rep := encodePageRep(reqID, pg, n.masterPage(pg))
		n.hmu.Unlock()
		n.send(int(m.From), msgPageRep, rep)
	case msgPageRep:
		n.deliver(u32(p), p[8:])
	case msgDiffReq:
		reqID, pg, runs, err := decodeDiff(p)
		if err != nil {
			n.setFail(fmt.Errorf("diff from node %d: %w", m.From, err))
			return
		}
		// A span past the page is a malformed or corrupted frame: fail
		// the node, naming the sender, instead of panicking the process.
		for _, s := range runs.Spans {
			if end := int64(s.Off) + int64(s.Len); s.Off < 0 || end > int64(n.c.cfg.PageSize) {
				n.setFail(fmt.Errorf("diff from node %d for page %d: span [%d, %d) outside the %d-byte page",
					m.From, pg, s.Off, end, n.c.cfg.PageSize))
				return
			}
		}
		n.hmu.Lock()
		(&core.Diff{Runs: runs}).Apply(n.masterPage(pg), nil)
		n.hmu.Unlock()
		n.send(int(m.From), msgDiffAck, putU32(nil, reqID))
	case msgDiffAck:
		n.deliver(u32(p), nil)
	case msgLockReq:
		n.lockReq(int(m.From), u32(p), u32(p[4:]))
	case msgLockGrant:
		n.deliver(u32(p), nil)
	case msgLockRel:
		n.lockRel(u32(p))
	case msgBarArrive:
		n.barArrive(u32(p))
	case msgBarRelease:
		n.barRelease(u32(p))
	case msgRedArrive:
		n.redArrive(u32(p), int(m.From), core.ReduceOp(p[4]), math.Float64frombits(u64(p[5:])))
	case msgRedRelease:
		n.redRelease(u32(p), math.Float64frombits(u64(p[4:])))
	default:
		n.setFail(fmt.Errorf("unknown message type %d from node %d", m.Type, m.From))
	}
}

// send ships one protocol message, converting transport failures into a
// node failure (which aborts every local worker).
func (n *rnode) send(to int, typ uint8, payload []byte) {
	err := n.conn.Send(transport.Message{
		To:      transport.NodeID(to),
		Class:   classOf(typ),
		Type:    typ,
		Payload: payload,
	})
	if err != nil {
		n.setFail(err)
	}
}

// newPending registers a reply slot and returns its request id.
func (n *rnode) newPending() (uint32, chan []byte) {
	id := n.reqSeq.Add(1)
	ch := make(chan []byte, 1)
	n.pmu.Lock()
	n.pending[id] = ch
	n.pmu.Unlock()
	return id, ch
}

// deliver routes a reply payload to the worker that registered reqID.
func (n *rnode) deliver(reqID uint32, payload []byte) {
	n.pmu.Lock()
	ch := n.pending[reqID]
	delete(n.pending, reqID)
	n.pmu.Unlock()
	if ch == nil {
		n.setFail(fmt.Errorf("reply for unknown request %d", reqID))
		return
	}
	ch <- payload
}

// await blocks on a reply slot without the run token; the caller must
// have released tok and reacquires it afterwards. A node failure aborts
// the worker instead.
func (n *rnode) await(ch chan []byte) []byte {
	select {
	case p := <-ch:
		return p
	case <-n.failCh:
		n.tok.Lock()
		panic(rtAbort{})
	}
}

// rtAbort unwinds a worker goroutine after a node failure; run's
// deferred recover swallows it.
type rtAbort struct{}

func (n *rnode) setFail(err error) {
	n.failMu.Lock()
	if n.failErr == nil {
		n.failErr = fmt.Errorf("rt: node %d: %w", n.self, err)
		close(n.failCh)
	}
	n.failMu.Unlock()
}

func (n *rnode) failure() error {
	n.failMu.Lock()
	defer n.failMu.Unlock()
	return n.failErr
}

// checkFail aborts the calling worker if the node has failed. Called
// with tok held at protocol entry points.
func (n *rnode) checkFail() {
	select {
	case <-n.failCh:
		panic(rtAbort{})
	default:
	}
}

// fetchPage returns the cache entry for remotely-homed page pg,
// requesting it from the home on a miss. Caller holds tok; the token is
// released while the request is in flight, letting co-located threads
// run — the paper's latency hiding, for real this time. Replies that
// raced an invalidation (epoch moved) are discarded and re-requested.
// The cache-hit path stays observation-free; misses pay one wall-clock
// read per enabled collector, dwarfed by the network round trip.
func (n *rnode) fetchPage(w *Worker, pg core.PageID) *rpage {
	for {
		if p := n.cache[pg]; p != nil {
			return p
		}
		obs := n.met != nil || n.tracer != nil
		var t0 sim.Time
		if obs {
			t0 = n.clock.Now()
			if tr := n.tracer; tr != nil {
				tr.emit(trace.Event{T: t0, Kind: trace.KindFaultStart,
					Node: int32(n.self), Thread: int32(w.gid), Page: int32(pg)})
			}
		}
		n.setState(w, tsFault)
		e := n.epoch.Load()
		reqID, ch := n.newPending()
		n.send(n.home(pg), msgPageReq, encodeReq(reqID, uint32(pg)))
		n.tok.Unlock()
		data := n.await(ch)
		n.tok.Lock()
		n.setState(w, tsRunning)
		if obs {
			now := n.clock.Now()
			n.observe(func(m *metrics.Registry) {
				// Service time (request to install) and the faulting
				// thread's blocked time coincide here.
				d := now - t0
				m.Node(n.self).FaultService.Observe(int64(d))
				m.Node(n.self).FaultThreadWait.Observe(int64(d))
				m.PageFaultWait(n.self, int32(pg), d)
			})
			if tr := n.tracer; tr != nil {
				tr.emit(trace.Event{T: now, Kind: trace.KindFaultResolve,
					Node: int32(n.self), Thread: int32(w.gid), Page: int32(pg)})
			}
		}
		if n.epoch.Load() != e {
			continue
		}
		if p := n.cache[pg]; p != nil {
			// A co-located thread installed the page while we waited;
			// its copy may already carry local writes — keep it.
			return p
		}
		p := &rpage{data: data}
		n.cache[pg] = p
		return p
	}
}

// flushOnce diffs every dirty page against its twin, ships the diffs to
// the homes, and waits for all acknowledgements. Caller holds tok; the
// token is released during the wait, so pages dirtied meanwhile by
// co-located threads are NOT covered — loop via flushAll when the flush
// must be complete at return.
func (n *rnode) flushOnce() {
	if len(n.dirty) == 0 {
		return
	}
	type ack struct{ ch chan []byte }
	var acks []ack
	for _, pg := range n.dirty {
		p := n.cache[pg]
		if p == nil || p.twin == nil {
			continue
		}
		n.diffScratch = core.MakeDiff(n.diffScratch, p.twin, p.data)
		p.twin = nil
		if len(n.diffScratch.Spans) == 0 {
			continue
		}
		reqID, ch := n.newPending()
		n.wireScratch = encodeDiff(n.wireScratch, reqID, pg, n.diffScratch)
		payload := bytes.Clone(n.wireScratch)
		// The diff's wire size: the encoded runs, excluding the
		// reqID+page request header.
		n.observe(func(m *metrics.Registry) { m.Node(n.self).DiffBytes.Observe(int64(len(payload) - 8)) })
		if tr := n.tracer; tr != nil {
			tr.emit(trace.Event{T: n.clock.Now(), Kind: trace.KindDiffCreate,
				Node: int32(n.self), Thread: -1, Page: int32(pg),
				Arg: int64(len(payload) - 8)})
		}
		n.send(n.home(pg), msgDiffReq, payload)
		acks = append(acks, ack{ch})
	}
	n.dirty = n.dirty[:0]
	if len(acks) == 0 {
		return
	}
	n.tok.Unlock()
	for _, a := range acks {
		n.await(a.ch)
	}
	n.tok.Lock()
}

// flushAll flushes until no dirty pages remain at return, with tok held
// continuously from the final emptiness check onward.
func (n *rnode) flushAll() {
	for len(n.dirty) > 0 {
		n.flushOnce()
	}
}

// acquireSync implements the acquire half of release consistency: flush
// anything dirty (invalidating it unflushed would lose writes), then
// drop the entire cache so post-acquire reads refetch current data from
// the homes. Caller holds tok.
func (n *rnode) acquireSync() {
	n.flushAll()
	n.epoch.Add(1)
	n.cache = make(map[core.PageID]*rpage)
}
