package trace

import (
	"sort"

	"cvm/internal/sim"
)

// Demux feeds a Tracer that expects one event at a time from the
// simulator's concurrently executing nodes: during a window each node emits into its own buffer (no shared state,
// so concurrent windows need no locking), and at every window commit
// Flush releases the buffered events to the underlying sink in canonical
// (T, Node, arrival) order. Because the window schedule is identical at
// every worker count, the sink — typically a Recorder, which stamps the
// global Seq in emission order — observes byte-identical event streams
// regardless of parallelism.
type Demux struct {
	sink Tracer
	bufs [][]demuxEntry
	idxs []uint64 // per-node monotone arrival counters
}

// demuxEntry pairs an event with its per-node arrival index, the
// tie-breaker that keeps same-instant events of one node in program
// order across flushes.
type demuxEntry struct {
	ev  Event
	idx uint64
}

// NewDemux returns a demultiplexer over nodes buffers feeding sink.
func NewDemux(nodes int, sink Tracer) *Demux {
	if nodes < 1 {
		nodes = 1
	}
	return &Demux{
		sink: sink,
		bufs: make([][]demuxEntry, nodes),
		idxs: make([]uint64, nodes),
	}
}

// Emit buffers the event on its node's queue. Safe to call from the
// node's window worker; events without a node (negative Node) may only
// be emitted with the engine quiescent (commit context) and share
// bucket 0.
func (d *Demux) Emit(e Event) {
	node := int(e.Node)
	if node < 0 || node >= len(d.bufs) {
		node = 0
	}
	d.idxs[node]++
	d.bufs[node] = append(d.bufs[node], demuxEntry{ev: e, idx: d.idxs[node]})
}

// Flush releases every buffered event with T strictly before the given
// bound to the sink, ordered by (T, Node, arrival). Events at or past
// the bound stay buffered — the next window may still emit events below
// them. Must be called with the engine quiescent (the window hook).
func (d *Demux) Flush(before sim.Time) {
	var out []demuxEntry
	for node, buf := range d.bufs {
		kept := buf[:0]
		for _, en := range buf {
			if en.ev.T < before {
				out = append(out, en)
			} else {
				kept = append(kept, en)
			}
		}
		d.bufs[node] = kept
	}
	d.release(out)
}

// FlushAll releases everything still buffered (end of run).
func (d *Demux) FlushAll() {
	var out []demuxEntry
	for node, buf := range d.bufs {
		out = append(out, buf...)
		d.bufs[node] = buf[:0]
	}
	d.release(out)
}

func (d *Demux) release(out []demuxEntry) {
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.ev.T != b.ev.T {
			return a.ev.T < b.ev.T
		}
		if a.ev.Node != b.ev.Node {
			return a.ev.Node < b.ev.Node
		}
		return a.idx < b.idx
	})
	for i := range out {
		d.sink.Emit(out[i].ev)
	}
}
