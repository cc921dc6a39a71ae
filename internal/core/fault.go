package core

import (
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// faultState tracks one in-flight remote page fetch: the parallel diff
// requests sent, the replies collected, and the local threads blocked on
// the page. The first blocked thread applies the diffs when the last
// reply arrives; later threads are Block-Same-Page waiters.
type faultState struct {
	page        *page
	ranges      []diffRange
	outstanding int
	diffs       []*Diff
	waiters     []*Thread
	ready       bool     // all replies received; applier may proceed
	start       sim.Time // fault-span open (before signal delivery), for FaultService

	// Whole-page snapshot from an exclusive-mode owner (adapt.go): when
	// set, applyFault installs it (with its coverage vector) before any
	// diffs.
	snap    []byte
	snapVec VClock
}

// ensureAccess makes the page accessible for the requested access kind,
// dispatching to the configured protocol's fault state machine. The LRC
// path runs remote fetches for invalid pages and twin creation for writes
// to read-only pages.
func (t *Thread) ensureAccess(p *page, write bool) {
	cfg := &t.sys.cfg
	if cfg.Protocol == ProtocolSW {
		t.swEnsureAccess(p, write)
		return
	}
	n := t.node
	for {
		switch {
		case p.state == PageReadWrite:
			return

		case p.state == PageReadOnly && !write:
			return

		case p.state == PageReadOnly:
			// Write to a valid read-only page: local fault. Charge
			// signal delivery, create the twin (a page-length copy
			// through the cache), re-enable writes (mprotect).
			if ad := n.adaptOf(p.id); ad != nil && ad.mode == ModeExcl &&
				ad.owner == int32(n.id) && !ad.exclMissed {
				// Exclusive owner: open the single-writer window — no
				// twin, no dirty-list entry, no page-length copy. The
				// absorbed writes re-enter the interval machinery when
				// the window closes (first foreign access or demotion).
				t.task.Advance(cfg.SignalCost)
				n.materialize(p)
				t.task.Advance(cfg.MprotectCost)
				if p.state != PageReadOnly || ad.mode != ModeExcl || ad.exclMissed {
					continue // a handler intervened while charging
				}
				p.state = PageReadWrite
				ad.exclOpen = true
				n.stats.LocalFaults++
				return
			}
			t.task.Advance(cfg.SignalCost)
			n.materialize(p)
			if p.twin == nil {
				n.newTwin(p)
				t.task.Advance(n.mem.AccessRange(t.pageVA(p.id), cfg.PageSize))
				if tr := t.sys.tracer; tr != nil {
					tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindTwinCreate,
						Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id)})
				}
			}
			t.task.Advance(cfg.MprotectCost)
			if p.state != PageReadOnly || p.twin == nil {
				// While the charges above yielded to the engine, a
				// handler either invalidated the page (write notice) or
				// consumed the twin to serve a diff request. Re-run the
				// fault state machine: writes must never proceed
				// without a live twin or they escape the next diff.
				continue
			}
			p.state = PageReadWrite
			n.markDirty(p)
			n.stats.LocalFaults++
			return

		default: // PageInvalid
			t.remoteFault(p)
		}
	}
}

// remoteFault fetches the diffs needed to validate p, blocking the thread.
// If a fetch for p is already in flight the thread joins it (Block Same
// Page). On return the page may still be invalid (a write notice arrived
// during the fetch); the caller's loop re-faults.
func (t *Thread) remoteFault(p *page) {
	n := t.node
	cfg := &t.sys.cfg

	if fs := p.fault; fs != nil {
		n.stats.BlockSamePage++
		fs.waiters = append(fs.waiters, t)
		wstart := t.task.Now()
		t.block(ReasonFault)
		if nm := n.met; nm != nil {
			d := t.task.Now() - wstart
			nm.FaultThreadWait.Observe(int64(d))
			t.sys.met.PageFaultWait(t.node.id, int32(p.id), d)
		}
		return
	}

	// The fault span opens before signal delivery is charged, matching
	// the paper's accounting of the ~1100µs remote fault path.
	fstart := t.task.Now()
	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: fstart, Kind: trace.KindFaultStart,
			Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id)})
	}
	t.task.Advance(cfg.SignalCost)
	n.noteFaultObs(p.id)
	ad := n.adaptOf(p.id)
	if ad != nil && ad.needFull {
		// Exclusive-mode invalidation: the owner's window writes exist
		// in no diff, so fetch a whole-page snapshot instead.
		t.fullFetchFault(p, ad, fstart)
		return
	}
	ranges := p.missingFrom()
	if len(ranges) == 0 {
		// Raced with a completing fetch; nothing is missing anymore.
		p.state = validState(p)
		if nm := n.met; nm != nil {
			nm.FaultService.Observe(int64(t.task.Now() - fstart))
		}
		if tr := t.sys.tracer; tr != nil {
			tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindFaultResolve,
				Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id)})
		}
		return
	}

	remote := ranges
	var cached []*Diff
	if ad != nil && ad.mode == ModeMWUpd && ad.cache != nil {
		remote, cached = n.consumeCached(p.id, ad, ranges)
		if len(remote) == 0 {
			// Every missing range is covered by pushed-update chains:
			// resolve the fault entirely locally, no round trip.
			fs := &faultState{page: p, ranges: ranges, diffs: cached,
				ready: true, start: fstart, waiters: []*Thread{t}}
			p.fault = fs
			n.inFlightFaults++
			t.applyFault(fs)
			return
		}
	}

	fs := &faultState{page: p, ranges: ranges, outstanding: len(remote),
		diffs: cached, start: fstart}
	p.fault = fs
	n.stats.RemoteFaults++
	n.stats.OutstandingFaults += int64(n.inFlightFaults)
	n.stats.OutstandingLocks += int64(n.inFlightLocks)
	n.inFlightFaults++

	sys := t.sys
	for _, r := range remote {
		r := r
		if t.affinity != nil {
			t.affinity[r.node]++
		}
		target := sys.nodes[r.node]
		sys.sendFromTask(t.task, NodeID(n.id), NodeID(r.node),
			ClassDiff, diffRequestBytes, func() {
				target.serveDiffRequest(p.id, r.from, r.to, func(ds []*Diff, bytes int, service sim.Time) {
					sys.eng.ScheduleOn(target.proc, target.proc.LocalNow()+service, func() {
						sys.sendFromHandler(NodeID(r.node), NodeID(n.id),
							ClassDiff, bytes, func() {
								fs.diffs = append(fs.diffs, ds...)
								fs.outstanding--
								if fs.outstanding == 0 {
									fs.ready = true
									sys.eng.Wake(fs.waiters[0].task)
								}
							})
					})
				})
			})
	}

	fs.waiters = append(fs.waiters, t)
	wstart := t.task.Now()
	t.block(ReasonFault)
	if nm := n.met; nm != nil {
		d := t.task.Now() - wstart
		nm.FaultThreadWait.Observe(int64(d))
		t.sys.met.PageFaultWait(t.node.id, int32(p.id), d)
	}

	if p.fault == fs && fs.ready && fs.waiters[0] == t {
		t.applyFault(fs)
	}
}

// applyFault installs the collected diffs in happened-before order,
// charging the memory-system cost of every modified byte, then releases
// the fault's co-waiters.
func (t *Thread) applyFault(fs *faultState) {
	n := t.node
	p := fs.page
	t.node.materialize(p)
	sortDiffs(fs.diffs)
	if t.sys.cfg.DetectRaces {
		n.detectRaces(fs.diffs)
	}
	base := t.pageVA(p.id)
	if fs.snap != nil {
		// Whole-page snapshot from an exclusive owner: install it first,
		// then credit the coverage its vector certifies. The owner's
		// applied indices are safe to adopt — the snapshot bytes include
		// every interval they cover.
		copy(p.data, fs.snap)
		for nd, v := range fs.snapVec {
			if nd == n.id || v == 0 {
				continue
			}
			if w := p.writer(nd); w.applied < v {
				w.applied = v
			}
		}
		t.task.Advance(n.mem.AccessRange(base, t.sys.cfg.PageSize))
		if ad := n.adaptOf(p.id); ad != nil {
			ad.needFull = false
		}
	}
	for _, d := range fs.diffs {
		d.Apply(p.data, p.twin)
		if w := p.writer(d.Node); d.Idx > w.applied {
			w.applied = d.Idx
		}
		n.stats.DiffsUsed++
		for _, s := range d.Runs.Spans {
			t.task.Advance(n.mem.AccessRange(base+uint64(s.Off), int(s.Len)))
		}
		if tr := t.sys.tracer; tr != nil {
			tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindDiffApply,
				Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id),
				Peer: int32(d.Node), Arg: int64(d.Idx), Aux: int64(d.Bytes())})
		}
	}
	// Empty replies still certify the requested ranges.
	for _, r := range fs.ranges {
		if w := p.writer(r.node); w.applied < r.to {
			w.applied = r.to
		}
	}
	t.task.Advance(t.sys.cfg.MprotectCost)

	if p.consistent() {
		p.state = validState(p)
	} // else: a write notice arrived mid-fetch; stay invalid and re-fault.

	if nm := n.met; nm != nil {
		nm.FaultService.Observe(int64(t.task.Now() - fs.start))
	}
	if tr := t.sys.tracer; tr != nil {
		tr.Emit(trace.Event{T: t.task.Now(), Kind: trace.KindFaultResolve,
			Node: int32(n.id), Thread: int32(t.gid), Page: int32(p.id),
			Arg: int64(len(fs.diffs))})
	}
	p.fault = nil
	n.inFlightFaults--
	for _, w := range fs.waiters[1:] {
		t.sys.eng.WakeAt(w.task, t.task.Now())
	}
}

// validState is the access right a consistent page returns to: read-write
// if the node is an active concurrent writer, read-only otherwise.
func validState(p *page) PageState {
	if p.openDirty {
		return PageReadWrite
	}
	return PageReadOnly
}

// diffRequestBytes is the wire size of a diff request (page id + range).
const diffRequestBytes = 16

// detectRaces counts pairs of concurrent (causally unordered) diffs that
// write overlapping bytes — the paper's definition of a probable data
// race in a multiple-writer protocol.
func (n *node) detectRaces(ds []*Diff) {
	for i := 0; i < len(ds); i++ {
		for j := i + 1; j < len(ds); j++ {
			a, b := ds[i], ds[j]
			if a.Node == b.Node || a.VT.Before(b.VT) || b.VT.Before(a.VT) {
				continue
			}
			if a.Overlaps(b) {
				n.stats.RacesDetected++
			}
		}
	}
}
