package netsim

import (
	"fmt"

	"cvm/internal/metrics"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// NumClasses is the number of message classes, exported for sizing the
// per-class fault probability arrays.
const NumClasses = int(numClasses)

// FaultParams configures the deterministic network fault model. The
// struct is pure read-only configuration — a single value may be shared
// across concurrently running systems (the harness does); all mutable
// fault state lives in the Network.
//
// Every fault decision is a pure function of (Seed, from, to, msgIndex)
// where msgIndex counts messages per directed channel, so a run's fault
// schedule is byte-reproducible and independent of wall-clock, map
// iteration, or goroutine scheduling.
type FaultParams struct {
	// Seed keys the fault PRNG. Two runs with equal Seed (and equal
	// workload) suffer identical fault schedules.
	Seed uint64

	// Drop, Dup, and Reorder are per-class probabilities in [0, 1]:
	// the chance that a message is discarded in flight, delivered twice,
	// or delayed by ReorderDelay so later traffic overtakes it.
	Drop    [NumClasses]float64
	Dup     [NumClasses]float64
	Reorder [NumClasses]float64

	// JitterMax adds uniform extra delivery latency in [0, JitterMax) to
	// every message (0 disables jitter).
	JitterMax sim.Time

	// ReorderDelay is the extra delivery latency applied to reordered
	// messages. Must be > 0 if any Reorder probability is.
	ReorderDelay sim.Time
}

// Active reports whether any fault dimension is enabled.
func (f *FaultParams) Active() bool {
	if f == nil {
		return false
	}
	for c := 0; c < NumClasses; c++ {
		if f.Drop[c] > 0 || f.Dup[c] > 0 || f.Reorder[c] > 0 {
			return true
		}
	}
	return f.JitterMax > 0
}

// Validate checks the parameters are well-formed.
func (f *FaultParams) Validate() error {
	reorder := false
	for c := 0; c < NumClasses; c++ {
		for _, p := range [3]struct {
			name string
			v    float64
		}{{"drop", f.Drop[c]}, {"dup", f.Dup[c]}, {"reorder", f.Reorder[c]}} {
			if p.v < 0 || p.v > 1 {
				return fmt.Errorf("netsim: %s probability for %v is %v, want [0, 1]", p.name, Class(c), p.v)
			}
		}
		reorder = reorder || f.Reorder[c] > 0
	}
	if f.JitterMax < 0 {
		return fmt.Errorf("netsim: negative JitterMax %v", f.JitterMax)
	}
	if f.ReorderDelay < 0 {
		return fmt.Errorf("netsim: negative ReorderDelay %v", f.ReorderDelay)
	}
	if reorder && f.ReorderDelay == 0 {
		return fmt.Errorf("netsim: Reorder probability set but ReorderDelay is zero")
	}
	return nil
}

// FaultStats counts the faults the model actually injected.
type FaultStats struct {
	Dropped   int64
	Dupped    int64
	Reordered int64
}

// Fault decision streams: each (message, decision) pair draws from an
// independent stream of the keyed PRNG so enabling one fault dimension
// never shifts another dimension's rolls.
const (
	streamDrop uint64 = iota + 1
	streamDup
	streamReorder
	streamJitter
)

// splitmix64 is the SplitMix64 finalizer: a cheap, well-distributed
// 64-bit mixer (Steele et al., "Fast Splittable Pseudorandom Number
// Generators").
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// faultRoll derives the decision word for one (message, stream) pair.
func faultRoll(seed uint64, from, to NodeID, idx, stream uint64) uint64 {
	h := splitmix64(seed)
	h = splitmix64(h ^ uint64(from))
	h = splitmix64(h ^ uint64(to))
	h = splitmix64(h ^ idx)
	return splitmix64(h ^ stream)
}

// unit maps a decision word to a uniform float64 in [0, 1).
func unit(h uint64) float64 { return float64(h>>11) * (1.0 / (1 << 53)) }

// SetFaults installs the fault model (nil restores the reliable
// network). Must be called before traffic flows.
func (n *Network) SetFaults(f *FaultParams) {
	if f != nil {
		if err := f.Validate(); err != nil {
			panic(err)
		}
		if !f.Active() {
			f = nil
		}
	}
	n.faults = f
	if f != nil && n.chanIdx == nil {
		n.chanIdx = make([]uint64, len(n.ports)*len(n.ports))
	}
}

// SetFaultCounters installs metric counters incremented on every drop
// and duplication (either may be nil).
func (n *Network) SetFaultCounters(dropped, dupped *metrics.Counter) {
	n.cDropped, n.cDupped = dropped, dupped
}

// FaultStats returns a snapshot of the injected-fault counters.
func (n *Network) FaultStats() FaultStats { return n.fstats }

// nextChanIdx returns and advances the per-channel message index that
// keys fault rolls for the next message from→to.
func (n *Network) nextChanIdx(from, to NodeID) uint64 {
	i := int(from)*len(n.ports) + int(to)
	idx := n.chanIdx[i]
	n.chanIdx[i]++
	return idx
}

// faultedSend routes one committed message through the fault model:
// possibly dropping it, delaying it (jitter/reorder), or delivering it
// twice.
func (n *Network) faultedSend(limit sim.Time, from NodeID, m *wireMsg) {
	f := n.faults
	depart, to, class, bytes := m.depart, m.to, m.class, m.bytes
	idx := n.nextChanIdx(from, to)

	if p := f.Drop[class]; p > 0 && unit(faultRoll(f.Seed, from, to, idx, streamDrop)) < p {
		n.dropMsg(depart, from, to, class, bytes)
		return
	}

	extra := sim.Time(0)
	if f.JitterMax > 0 {
		extra += sim.Time(unit(faultRoll(f.Seed, from, to, idx, streamJitter)) * float64(f.JitterMax))
	}
	if p := f.Reorder[class]; p > 0 && unit(faultRoll(f.Seed, from, to, idx, streamReorder)) < p {
		extra += f.ReorderDelay
		n.fstats.Reordered++
	}
	n.schedule(limit, from, m, n.arrival(depart, from, to, class, bytes, extra))

	if p := f.Dup[class]; p > 0 && unit(faultRoll(f.Seed, from, to, idx, streamDup)) < p {
		n.fstats.Dupped++
		if n.cDupped != nil {
			n.cDupped.Add(1)
		}
		if n.tracer != nil {
			// Aux links the duplication to the original message's id
			// (assigned by the arrival call just above).
			n.tracer.Emit(trace.Event{T: depart, Kind: trace.KindMsgDup,
				Node: int32(from), Thread: -1, Peer: int32(to),
				Sync: int32(class), Arg: int64(bytes), Aux: n.msgID})
		}
		// The replica is a second physical message: it pays its own wire,
		// ingress, and accounting, and delivers under its own id.
		n.schedule(limit, from, m, n.arrival(depart, from, to, class, bytes, extra))
	}
}

// dropMsg accounts a message that left the sender's egress but never
// arrived. It still counts in the traffic stats (it consumed the wire)
// but emits no send/deliver pair — only a drop event.
func (n *Network) dropMsg(depart sim.Time, from, to NodeID, class Class, bytes int) {
	n.stats.Msgs[class]++
	n.stats.Bytes[class] += int64(bytes)
	n.fstats.Dropped++
	if n.cDropped != nil {
		n.cDropped.Add(1)
	}
	if n.tracer != nil {
		n.msgID++
		n.tracer.Emit(trace.Event{T: depart, Kind: trace.KindMsgDrop,
			Node: int32(from), Thread: -1, Peer: int32(to),
			Sync: int32(class), Arg: int64(bytes), Aux: n.msgID})
	}
}
