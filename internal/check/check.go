// Package check is a protocol invariant checker for the simulated DSM.
//
// The Checker implements trace.Tracer and audits the event stream
// online, holding the protocol to the invariants its correctness
// argument rests on: intervals close in order, twins pair with diffs,
// no diff is created or applied twice, at most one thread holds a lock,
// and barrier epochs are globally agreed. It is an optional hook in the
// same style as the tracer and metrics registry — wire it into
// Config.Tracer (alone, or fanned out with trace.Tee) and ask it for
// violations after the run; a nil or absent checker costs nothing.
//
// The checker is most valuable under fault injection: the reliable
// transport claims exactly-once delivery over a lossy network, and
// these invariants are exactly what breaks first if a duplicated or
// replayed message slips through — a lock granted twice, a diff applied
// twice, a barrier releasing early. The chaos suite runs every
// application under every fault schedule with a Checker attached and
// asserts zero violations.
package check

import (
	"fmt"
	"strings"

	"cvm/internal/sim"
	"cvm/internal/trace"
)

// maxDetailed bounds the violations kept with full detail; beyond it
// only the count grows (a broken protocol can violate millions of times).
const maxDetailed = 1000

// Violation is one observed invariant breach.
type Violation struct {
	T         sim.Time // virtual time of the offending event
	Node      int32    // node the event was recorded against
	Page      int32    // page involved, -1 when not page-related
	Invariant string   // short invariant name (e.g. "lock-unique-holder")
	Detail    string   // human-readable specifics
}

func (v Violation) String() string {
	if v.Page >= 0 {
		return fmt.Sprintf("T=%v node=%d page=%d [%s] %s", v.T, v.Node, v.Page, v.Invariant, v.Detail)
	}
	return fmt.Sprintf("T=%v node=%d [%s] %s", v.T, v.Node, v.Invariant, v.Detail)
}

// pagePeer keys per-(node,page,peer) diff application state.
type pagePeer struct {
	node, page, peer int32
}

// nodePage keys per-(node,page) twin state.
type nodePage struct {
	node, page int32
}

// diffKey identifies one created diff: creator node, page, interval.
type diffKey struct {
	node, page int32
	idx        int64
}

// lockHolder records who holds a lock.
type lockHolder struct {
	node, thread int32
}

// pageEpoch keys the cluster-wide mode agreement per adaptation epoch.
type pageEpoch struct {
	page  int32
	epoch int64
}

// modeDecl is the content of one mode-change notice: every node that
// applies epoch E for page P must apply the same declaration.
type modeDecl struct {
	mode  int64
	owner int32
}

// migration tracks one in-flight thread migration.
type migration struct {
	src, dst int32
}

// modeExcl mirrors core.ModeExcl (trace events carry the numeric mode
// in Arg; importing core here would invert the dependency). Pinned by
// TestModeValueMirrorsCore.
const modeExcl = 2

// barrierState tracks one global barrier id across epochs. Epochs of
// the same id are sequential, but releases of epoch k can interleave
// with arrivals of epoch k+1 (a released node races ahead while another
// node's release message is still in flight), so arrivals and
// outstanding releases are tracked independently.
type barrierState struct {
	arrived     int // arrivals toward the current epoch
	outstanding int // releases still owed for completed epochs
}

// localBarrierState tracks one (node, id) local barrier.
type localBarrierState struct {
	arrived int
}

// Checker audits a protocol event stream. It implements trace.Tracer.
// Like the Recorder, it expects events one at a time — the simulator
// releases them through its per-window trace demultiplexer — and must
// not be shared between concurrently running systems.
type Checker struct {
	nodes   int
	threads int // per node

	violations []Violation
	total      int

	intervalIdx []int64                    // per node: highest interval idx seen closing
	twins       map[nodePage]bool          // outstanding twin per (node, page)
	diffsMade   map[diffKey]bool           // diffs created, for uniqueness
	appliedIdx  map[pagePeer]int64         // highest interval idx applied per (node,page,peer)
	applied     map[diffKey]map[int32]bool // diff → set of nodes that applied it
	lockHeld    map[int32]lockHolder       // lock id → holder
	barriers    map[int32]*barrierState
	localBars   map[nodePage]*localBarrierState // (node, barrier id)

	// Adaptive-coherence state. All maps stay empty for plain LRC runs
	// (the kinds below are never emitted), so the checker costs nothing
	// extra there.
	modeEpoch map[nodePage]int64     // last mode-change epoch applied
	modeAt    map[pageEpoch]modeDecl // cluster-wide declaration per epoch
	exclSpan  map[nodePage]bool      // owner holds an unopened/open excl grant
	homes     map[int32]int32        // thread gid → home node
	inflight  map[int32]migration    // thread gid → migration under way
}

// New returns a Checker for a cluster of the given shape.
func New(nodes, threadsPerNode int) *Checker {
	return &Checker{
		nodes:       nodes,
		threads:     threadsPerNode,
		intervalIdx: make([]int64, nodes),
		twins:       make(map[nodePage]bool),
		diffsMade:   make(map[diffKey]bool),
		appliedIdx:  make(map[pagePeer]int64),
		applied:     make(map[diffKey]map[int32]bool),
		lockHeld:    make(map[int32]lockHolder),
		barriers:    make(map[int32]*barrierState),
		localBars:   make(map[nodePage]*localBarrierState),
		modeEpoch:   make(map[nodePage]int64),
		modeAt:      make(map[pageEpoch]modeDecl),
		exclSpan:    make(map[nodePage]bool),
		homes:       make(map[int32]int32),
		inflight:    make(map[int32]migration),
	}
}

func (c *Checker) violate(e trace.Event, page int32, invariant, format string, args ...any) {
	c.total++
	if len(c.violations) < maxDetailed {
		c.violations = append(c.violations, Violation{
			T: e.T, Node: e.Node, Page: page,
			Invariant: invariant, Detail: fmt.Sprintf(format, args...),
		})
	}
}

// Emit audits one event. It implements trace.Tracer.
func (c *Checker) Emit(e trace.Event) {
	// migrate-single-home: a thread acts only on its home node, and
	// never while its continuation is in flight between nodes. Audited
	// on the kinds that carry a global thread id attributed to the
	// emitting node.
	switch e.Kind {
	case trace.KindFaultStart, trace.KindFaultResolve,
		trace.KindLockAcquire, trace.KindLockRelease,
		trace.KindBarrierArrive, trace.KindThreadBlock, trace.KindThreadUnblock:
		if e.Thread >= 0 {
			if m, ok := c.inflight[e.Thread]; ok {
				c.violate(e, -1, "migrate-single-home",
					"thread %d acted on node %d while migrating %d→%d",
					e.Thread, e.Node, m.src, m.dst)
			} else if home, ok := c.homes[e.Thread]; !ok {
				c.homes[e.Thread] = e.Node
			} else if home != e.Node {
				c.violate(e, -1, "migrate-single-home",
					"thread %d acted on node %d, homed on node %d without a migration",
					e.Thread, e.Node, home)
			}
		}
	}

	switch e.Kind {
	case trace.KindTwinCreate:
		// twin-unique: at most one outstanding twin per (node, page) —
		// a second twin inside the same interval would fork the page.
		key := nodePage{e.Node, e.Page}
		if c.twins[key] {
			c.violate(e, e.Page, "twin-unique", "twin created while a twin is already outstanding")
			return
		}
		c.twins[key] = true

	case trace.KindDiffCreate:
		// interval-monotone: a node closes intervals in increasing
		// index order — the vector-clock component for the node itself
		// never runs backwards.
		if idx := e.Aux; idx < c.intervalIdx[e.Node] {
			c.violate(e, e.Page, "interval-monotone",
				"diff for interval %d created after interval %d closed", idx, c.intervalIdx[e.Node])
		} else {
			c.intervalIdx[e.Node] = idx
		}
		// diff-unique: one diff per (node, page, interval).
		dk := diffKey{e.Node, e.Page, e.Aux}
		if c.diffsMade[dk] {
			c.violate(e, e.Page, "diff-unique",
				"diff for interval %d created twice", e.Aux)
		}
		c.diffsMade[dk] = true
		// twin-diff-pairing: a diff encodes the page against its twin,
		// so an unconsumed twin must exist.
		key := nodePage{e.Node, e.Page}
		if !c.twins[key] {
			c.violate(e, e.Page, "twin-diff-pairing", "diff created with no outstanding twin")
		}
		delete(c.twins, key)
		// excl-no-diff: an exclusive owner absorbs writes without the
		// twin/diff machinery; a diff between the grant and the window
		// close means the single-writer fast path leaked an interval.
		if c.exclSpan[key] {
			c.violate(e, e.Page, "excl-no-diff",
				"diff created inside an exclusive-mode window")
		}

	case trace.KindDiffApply:
		// diff-apply-once: a node never applies the same diff twice —
		// the first thing a replayed message would do.
		dk := diffKey{e.Peer, e.Page, e.Arg}
		nodes := c.applied[dk]
		if nodes == nil {
			nodes = make(map[int32]bool)
			c.applied[dk] = nodes
		}
		if nodes[e.Node] {
			c.violate(e, e.Page, "diff-apply-once",
				"diff from node %d interval %d applied twice", e.Peer, e.Arg)
		}
		nodes[e.Node] = true
		// diff-apply-order: diffs from one creator apply to a page in
		// interval order (the creator's program order); applying them
		// out of order loses updates.
		pp := pagePeer{e.Node, e.Page, e.Peer}
		if prev, ok := c.appliedIdx[pp]; ok && e.Arg < prev {
			c.violate(e, e.Page, "diff-apply-order",
				"diff from node %d interval %d applied after interval %d", e.Peer, e.Arg, prev)
		} else {
			c.appliedIdx[pp] = e.Arg
		}

	case trace.KindLockAcquire:
		// lock-unique-holder: mutual exclusion in emission order.
		if h, held := c.lockHeld[e.Sync]; held {
			c.violate(e, -1, "lock-unique-holder",
				"lock %d acquired by thread %d while node %d thread %d holds it",
				e.Sync, e.Thread, h.node, h.thread)
		}
		c.lockHeld[e.Sync] = lockHolder{e.Node, e.Thread}

	case trace.KindLockRelease:
		h, held := c.lockHeld[e.Sync]
		if !held {
			c.violate(e, -1, "lock-unique-holder", "lock %d released while not held", e.Sync)
		} else if h != (lockHolder{e.Node, e.Thread}) {
			c.violate(e, -1, "lock-unique-holder",
				"lock %d released by node %d thread %d, held by node %d thread %d",
				e.Sync, e.Node, e.Thread, h.node, h.thread)
		}
		delete(c.lockHeld, e.Sync)

	case trace.KindBarrierArrive:
		if e.Aux == 1 {
			key := nodePage{e.Node, e.Sync}
			lb := c.localBars[key]
			if lb == nil {
				lb = &localBarrierState{}
				c.localBars[key] = lb
			}
			lb.arrived++
			return
		}
		b := c.barriers[e.Sync]
		if b == nil {
			b = &barrierState{}
			c.barriers[e.Sync] = b
		}
		b.arrived++
		if b.arrived > c.nodes*c.threads {
			c.violate(e, -1, "barrier-epoch",
				"barrier %d saw arrival %d, epoch needs %d", e.Sync, b.arrived, c.nodes*c.threads)
		} else if b.arrived == c.nodes*c.threads {
			// Epoch complete: every node now owes one release.
			b.arrived = 0
			b.outstanding += c.nodes
		}

	case trace.KindBarrierRelease:
		if e.Aux == 1 {
			key := nodePage{e.Node, e.Sync}
			lb := c.localBars[key]
			if lb == nil || lb.arrived != c.threads {
				got := 0
				if lb != nil {
					got = lb.arrived
				}
				c.violate(e, -1, "barrier-epoch",
					"local barrier %d released after %d arrivals, want %d", e.Sync, got, c.threads)
			}
			if lb != nil {
				lb.arrived = 0
			}
			return
		}
		b := c.barriers[e.Sync]
		if b == nil || b.outstanding == 0 {
			arrived := 0
			if b != nil {
				arrived = b.arrived
			}
			c.violate(e, -1, "barrier-epoch",
				"barrier %d released with no completed epoch (%d/%d arrivals)",
				e.Sync, arrived, c.nodes*c.threads)
			return
		}
		b.outstanding--

	case trace.KindModeChange:
		// mode-epoch-monotone: a node applies mode changes for a page in
		// strictly increasing adaptation-epoch order — a replayed or
		// reordered notice would roll a page's protocol backwards.
		key := nodePage{e.Node, e.Page}
		if last, ok := c.modeEpoch[key]; ok && e.Aux <= last {
			c.violate(e, e.Page, "mode-epoch-monotone",
				"mode change for epoch %d applied after epoch %d", e.Aux, last)
		} else {
			c.modeEpoch[key] = e.Aux
		}
		// mode-agree: every node that applies epoch E for a page applies
		// the same (mode, owner) declaration — the notices are a
		// broadcast, and a disagreement forks the coherence protocol.
		pe := pageEpoch{e.Page, e.Aux}
		decl := modeDecl{mode: e.Arg, owner: e.Peer}
		if prev, ok := c.modeAt[pe]; !ok {
			c.modeAt[pe] = decl
		} else if prev != decl {
			c.violate(e, e.Page, "mode-agree",
				"epoch %d declares mode %d owner %d here, mode %d owner %d elsewhere",
				e.Aux, decl.mode, decl.owner, prev.mode, prev.owner)
		}
		// excl-no-diff bookkeeping: a grant opens the forbidden span at
		// the owner; any change away from exclusive ends it (the window,
		// if it ever opened, was closed before this notice was emitted).
		if e.Arg == modeExcl && e.Peer == e.Node {
			c.exclSpan[key] = true
		} else {
			delete(c.exclSpan, key)
		}

	case trace.KindExclWindowClose:
		// The owner committed its absorbed writes back onto the interval
		// machinery; diffs for the page are legitimate again.
		delete(c.exclSpan, nodePage{e.Node, e.Page})

	case trace.KindMigrateStart:
		if m, ok := c.inflight[e.Thread]; ok {
			c.violate(e, -1, "migrate-single-home",
				"thread %d re-migrated (%d→%d) while already in flight %d→%d",
				e.Thread, e.Node, e.Peer, m.src, m.dst)
			return
		}
		if home, ok := c.homes[e.Thread]; ok && home != e.Node {
			c.violate(e, -1, "migrate-single-home",
				"thread %d migrated out of node %d but is homed on node %d",
				e.Thread, e.Node, home)
		}
		delete(c.homes, e.Thread)
		c.inflight[e.Thread] = migration{src: e.Node, dst: e.Peer}

	case trace.KindMigrateArrive:
		m, ok := c.inflight[e.Thread]
		if !ok {
			c.violate(e, -1, "migrate-single-home",
				"thread %d arrived at node %d with no migration in flight",
				e.Thread, e.Node)
		} else if m.dst != e.Node || m.src != e.Peer {
			c.violate(e, -1, "migrate-single-home",
				"thread %d arrived %d→%d, migration in flight was %d→%d",
				e.Thread, e.Peer, e.Node, m.src, m.dst)
		}
		delete(c.inflight, e.Thread)
		c.homes[e.Thread] = e.Node
	}
}

// Finish audits end-of-run state: every barrier epoch that gathered
// arrivals must have fully released. Call after the run completes; it
// may append further violations.
func (c *Checker) Finish() {
	for id, b := range c.barriers {
		if b.arrived != 0 || b.outstanding != 0 {
			c.violate(trace.Event{Node: -1}, -1, "barrier-epoch",
				"run ended with barrier %d mid-epoch: %d arrivals pending, %d releases owed",
				id, b.arrived, b.outstanding)
		}
	}
	for key, lb := range c.localBars {
		if lb.arrived != 0 {
			c.violate(trace.Event{Node: key.node}, -1, "barrier-epoch",
				"run ended with local barrier %d on node %d mid-epoch: %d arrivals pending",
				key.page, key.node, lb.arrived)
		}
	}
	for gid, m := range c.inflight {
		c.violate(trace.Event{Node: m.src}, -1, "migrate-single-home",
			"run ended with thread %d still in flight %d→%d", gid, m.src, m.dst)
	}
}

// Violations returns the detailed violations recorded so far (capped at
// an internal bound; Count reports the true total).
func (c *Checker) Violations() []Violation { return c.violations }

// Count reports the total number of violations, including any beyond
// the detailed cap.
func (c *Checker) Count() int { return c.total }

// Err summarizes the violations as an error, nil if there are none.
func (c *Checker) Err() error {
	if c.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %d protocol invariant violation(s)", c.total)
	show := c.violations
	if len(show) > 5 {
		show = show[:5]
	}
	for _, v := range show {
		b.WriteString("\n  ")
		b.WriteString(v.String())
	}
	if c.total > len(show) {
		fmt.Fprintf(&b, "\n  ... and %d more", c.total-len(show))
	}
	return fmt.Errorf("%s", b.String())
}

// Report writes every detailed violation, one per line — the artifact
// CI uploads when a chaos run fails.
func (c *Checker) Report(w *strings.Builder) {
	fmt.Fprintf(w, "%d violation(s), %d detailed\n", c.total, len(c.violations))
	for _, v := range c.violations {
		w.WriteString(v.String())
		w.WriteByte('\n')
	}
}
