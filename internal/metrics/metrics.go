// Package metrics is the virtual-time metrics layer of the simulated
// DSM: a deterministic registry of counters, gauges, and fixed-bucket
// log-scale histograms, plus the hot-spot attribution behind the
// per-page and per-lock profiler tables.
//
// Like trace.Tracer, the registry is nil-checkable: hot paths hold a
// per-node *NodeMetrics (or the *Registry itself) and guard every
// observation with one predictable branch, so a disabled registry costs
// nothing. All observations are pointer-free in-place updates — no
// allocation on the hot path beyond the amortized growth of the
// attribution maps and timeline bins.
//
// Because the simulator dispatches one entity at a time in virtual-time
// order, observation order is deterministic and the registry needs no
// locking; a Registry must not be shared between concurrent systems.
// The serialized Snapshot — and therefore every report built from it —
// is byte-reproducible for a given configuration.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strconv"

	"cvm/internal/sim"
)

// NumBuckets is the fixed bucket count of every histogram. Bucket i
// holds values v with bits.Len64(v) == i: bucket 0 is exactly zero,
// bucket i ≥ 1 covers [2^(i-1), 2^i). The layout is value-range
// complete for non-negative int64, so observation never branches on
// configuration.
const NumBuckets = 64

// Histogram is a fixed-bucket log2-scale histogram. The struct is
// pointer-free and fixed-size: observing never allocates, and snapshots
// are plain value copies. Sum/Min/Max are exact; quantiles are bucket
// upper bounds (≤ one power of two of error).
type Histogram struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [NumBuckets]int64
}

// Observe records v (negative values clamp to zero, preserving Count).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bits.Len64(uint64(v))]++
}

// Mean reports the exact mean of observed values (0 when empty).
func (h *Histogram) Mean() int64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Quantile reports the upper bound of the bucket holding the p-quantile
// (nearest rank), clamped to the exact Max. p is in [0, 1].
func (h *Histogram) Quantile(p float64) int64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(float64(h.Count)*p + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		cum += h.Buckets[i]
		if cum >= rank {
			u := bucketUpper(i)
			if u > h.Max {
				u = h.Max
			}
			return u
		}
	}
	return h.Max
}

// bucketUpper is the largest value bucket i can hold.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// merge folds other into h.
func (h *Histogram) merge(other *Histogram) {
	if other.Count == 0 {
		return
	}
	if h.Count == 0 {
		*h = *other
		return
	}
	if other.Min < h.Min {
		h.Min = other.Min
	}
	if other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// histJSON is the wire form of a Histogram: the zero buckets are
// omitted, keyed by bucket index. encoding/json sorts map keys, so the
// encoding is deterministic.
type histJSON struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min,omitempty"`
	Max     int64            `json:"max,omitempty"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes the histogram sparsely (only nonzero buckets).
func (h Histogram) MarshalJSON() ([]byte, error) {
	j := histJSON{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
	for i, c := range h.Buckets {
		if c != 0 {
			if j.Buckets == nil {
				j.Buckets = make(map[string]int64)
			}
			j.Buckets[strconv.Itoa(i)] = c
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes the sparse form written by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*h = Histogram{Count: j.Count, Sum: j.Sum, Min: j.Min, Max: j.Max}
	for k, c := range j.Buckets {
		i, err := strconv.Atoi(k)
		if err != nil || i < 0 || i >= NumBuckets {
			return fmt.Errorf("metrics: bad histogram bucket key %q", k)
		}
		h.Buckets[i] = c
	}
	return nil
}

// Counter is a monotonic counter. Counters merge by addition.
type Counter int64

// Add increases the counter by d.
func (c *Counter) Add(d int64) { *c += Counter(d) }

// Gauge is a last-value metric (an instantaneous level, not a total).
// Gauges merge by maximum.
type Gauge int64

// Set records the gauge's current value.
func (g *Gauge) Set(v int64) { *g = Gauge(v) }

// WaitAttr accumulates blocked time attributed to one entity (a page or
// a lock): total wait and the number of waits.
type WaitAttr struct {
	WaitNs int64 `json:"wait_ns"`
	Count  int64 `json:"count"`
}

// TimelineBin is one fixed-interval slice of a node's utilization
// timeline: how the node's virtual time in the bin divided between user
// execution and the three idle classes.
type TimelineBin struct {
	UserNs    int64 `json:"user_ns"`
	FaultNs   int64 `json:"fault_ns"`
	LockNs    int64 `json:"lock_ns"`
	BarrierNs int64 `json:"barrier_ns"`
}

// Timeline components, indexing TimelineBin fields.
const (
	TimelineUser = iota
	TimelineFault
	TimelineLock
	TimelineBarrier
)

func (b *TimelineBin) add(comp int, d int64) {
	switch comp {
	case TimelineUser:
		b.UserNs += d
	case TimelineFault:
		b.FaultNs += d
	case TimelineLock:
		b.LockNs += d
	case TimelineBarrier:
		b.BarrierNs += d
	}
}

// total reports the bin's attributed virtual time across components.
func (b *TimelineBin) total() int64 {
	return b.UserNs + b.FaultNs + b.LockNs + b.BarrierNs
}

// NodeMetrics are one node's histograms. Every exported field must be a
// Histogram, Counter, or Gauge: the reflection-driven report writer,
// Snapshot.Merge, and the compare tool walk the fields, so a new metric
// added here automatically reaches every consumer (guarded by
// TestRegistryFieldsReachReportAndMerge).
//
// Time-valued histograms observe nanoseconds of virtual time.
type NodeMetrics struct {
	// The Figure-1 wall-time decomposition, observed from the scheduler
	// hooks: UserBurst records every execution slice (run-burst length),
	// and the three idle histograms record fully-idle processor episodes
	// by block reason. Their sums reconcile exactly with
	// NodeStats.UserTime/FaultWait/LockWait/BarrierWait, so
	// UserBurst.Sum + FaultIdle.Sum + LockIdle.Sum + BarrierIdle.Sum ==
	// NodeStats.Wall().
	UserBurst   Histogram `json:"user_burst"`
	FaultIdle   Histogram `json:"fault_idle"`
	LockIdle    Histogram `json:"lock_idle"`
	BarrierIdle Histogram `json:"barrier_idle"`

	// Protocol service times. FaultService spans a remote fault from
	// fault start to page consistency (the paper's ~1100µs path);
	// FaultThreadWait is each thread's blocked time per fault (joiners
	// included). Lock2Hop/Lock3Hop span request→acquire for remote lock
	// acquires by hop count (937µs / 1382µs uncontended);
	// LockLocalWait is the blocked time of local-queue (Block Same
	// Lock) acquires. BarrierStall spans arrive→release per thread.
	FaultService    Histogram `json:"fault_service"`
	FaultThreadWait Histogram `json:"fault_thread_wait"`
	Lock2Hop        Histogram `json:"lock_2hop"`
	Lock3Hop        Histogram `json:"lock_3hop"`
	LockLocalWait   Histogram `json:"lock_local_wait"`
	BarrierStall    Histogram `json:"barrier_stall"`

	LocalBarrierStall Histogram `json:"local_barrier_stall"`

	// DiffBytes observes the wire size of every diff materialized at
	// this node. RunQueue observes the ready-queue depth at each
	// execution slice (scheduler occupancy; unit: threads, not ns).
	DiffBytes Histogram `json:"diff_bytes"`
	RunQueue  Histogram `json:"run_queue"`
}

// NetMetrics are the interconnect histograms, indexed by message class
// in netsim class order (Snapshot.MsgClasses carries the names).
type NetMetrics struct {
	// Latency spans egress departure → handler start (wire plus ingress
	// queueing plus receive overhead). EgressWait and IngressWait are
	// the serialization delays at the sender NIC and receiver ingress.
	Latency     []Histogram `json:"latency"`
	EgressWait  []Histogram `json:"egress_wait"`
	IngressWait []Histogram `json:"ingress_wait"`
}

// Snapshot is the complete serializable state of a Registry. Merge
// folds another snapshot in (histograms add bucket-wise, counters add,
// gauges take the maximum), which the harness uses to aggregate
// per-cell registries of a grid in deterministic job order.
type Snapshot struct {
	Nodes      []NodeMetrics `json:"nodes"`
	Net        NetMetrics    `json:"net"`
	MsgClasses []string      `json:"msg_classes"`

	// PageWait attributes fault-blocked thread time to page ids;
	// LockWait attributes lock-blocked thread time to lock ids. The
	// top-N hot tables are derived from these at report time.
	PageWait map[int32]*WaitAttr `json:"page_wait"`
	LockWait map[int32]*WaitAttr `json:"lock_wait"`

	// Timeline is the per-node utilization timeline: fixed
	// IntervalNs-wide bins from EpochNs, each splitting the node's time
	// into user/fault/lock/barrier. Spans past the bin cap accumulate
	// in TimelineClippedNs instead of growing without bound.
	Timeline          [][]TimelineBin `json:"timeline"`
	IntervalNs        Gauge           `json:"interval_ns"`
	EpochNs           Gauge           `json:"epoch_ns"`
	TimelineClippedNs Counter         `json:"timeline_clipped_ns"`

	// Fault-injection and reliable-transport accounting. NetDropped and
	// NetDuplicated count messages the fault model discarded or replicated
	// at the network layer; Retransmits counts sender-side re-sends after
	// an ack timeout; DupSuppressed counts replayed deliveries the
	// receiver deduped. All stay zero on a fault-free run.
	NetDropped    Counter `json:"net_dropped"`
	NetDuplicated Counter `json:"net_duplicated"`
	Retransmits   Counter `json:"retransmits"`
	DupSuppressed Counter `json:"dup_suppressed"`

	// Backend-invariant synchronization counters: one increment per
	// application-level Lock, Unlock, Barrier, LocalBarrier, and Reduce
	// call. These are properties of the program, not of the protocol or
	// the clock, so the deterministic simulator and the real runtime
	// must agree on them exactly — `cvm-metrics diff-backends` and
	// harness.GuardTransportEquivalence gate on that equality. They are
	// run-lifetime counts: the steady-state Reset does not clear them
	// (the real runtime has no cluster-wide reset instant, so a windowed
	// count could never line up across backends).
	LockAcquires         Counter `json:"lock_acquires"`
	LockReleases         Counter `json:"lock_releases"`
	BarrierArrivals      Counter `json:"barrier_arrivals"`
	LocalBarrierArrivals Counter `json:"local_barrier_arrivals"`
	Reductions           Counter `json:"reductions"`
}

// BackendInvariantCounters names the Snapshot counters every backend
// must agree on exactly for the same application and shape (the
// diff-backends equivalence gate). The names are the counters' JSON
// keys, as produced by EachCounter.
func BackendInvariantCounters() []string {
	return []string{
		"lock_acquires",
		"lock_releases",
		"barrier_arrivals",
		"local_barrier_arrivals",
		"reductions",
	}
}

// Merge folds other into s field-by-field via reflection, so metrics
// added to any struct reached from Snapshot merge without new code.
func (s *Snapshot) Merge(other *Snapshot) { mergeInto(s, other) }

// Clone returns a deep copy of s.
func (s *Snapshot) Clone() *Snapshot {
	out := &Snapshot{}
	out.Merge(s)
	return out
}

// Registry collects a run's metrics. Create with NewRegistry, set on
// core.Config.Metrics; the system configures the shape at construction.
// A Registry observes one system's single run and must not be shared
// between concurrent systems.
type Registry struct {
	configured bool
	interval   sim.Time
	maxBins    int
	epoch      sim.Time
	snap       Snapshot

	// shards hold the observations that hot paths attribute to a known
	// node: wait attribution, timeline clipping, and transport counters.
	// Keeping them per node lets the engine's concurrent per-node
	// workers observe without locks; Snapshot folds the
	// shards in node order, and every fold operation is commutative, so
	// the folded snapshot is byte-identical at any worker count.
	shards []regShard

	// syncShards hold the backend-invariant synchronization counts.
	// Unlike shards they survive Reset: the counts are run-lifetime by
	// contract (see the Snapshot field comment), so Configure only
	// allocates them on first configuration.
	syncShards []syncCounts
}

// syncCounts is one node's shard of the backend-invariant counters.
type syncCounts struct {
	lockAcquires         int64
	lockReleases         int64
	barrierArrivals      int64
	localBarrierArrivals int64
	reductions           int64
}

// regShard is one node's lock-free observation shard.
type regShard struct {
	pageWait      map[int32]*WaitAttr
	lockWait      map[int32]*WaitAttr
	clippedNs     int64
	retransmits   int64
	dupSuppressed int64
}

// DefaultTimelineInterval is the default utilization-timeline bin width.
const DefaultTimelineInterval = 10 * sim.Millisecond

// defaultMaxBins bounds the per-node timeline length (bins past the cap
// accumulate in TimelineClippedNs).
const defaultMaxBins = 4096

// NewRegistry returns an unconfigured registry with the default
// timeline interval.
func NewRegistry() *Registry {
	return &Registry{interval: DefaultTimelineInterval, maxBins: defaultMaxBins}
}

// SetInterval sets the utilization-timeline bin width. It must be
// called before the registry is attached to a system; d must be > 0.
func (r *Registry) SetInterval(d sim.Time) {
	if d <= 0 {
		panic("metrics: SetInterval with non-positive interval")
	}
	if r.configured {
		panic("metrics: SetInterval after Configure")
	}
	r.interval = d
}

// Configure sizes the registry for a cluster. The system calls it once
// at construction; configuring twice panics, catching registries shared
// between systems (their interleaved observations would be
// system-order-dependent).
func (r *Registry) Configure(nodes int, msgClasses []string) {
	if r.configured {
		panic("metrics: Registry attached to a second system")
	}
	r.configured = true
	r.snap.Nodes = make([]NodeMetrics, nodes)
	r.snap.Net = NetMetrics{
		Latency:     make([]Histogram, len(msgClasses)),
		EgressWait:  make([]Histogram, len(msgClasses)),
		IngressWait: make([]Histogram, len(msgClasses)),
	}
	r.snap.MsgClasses = append([]string(nil), msgClasses...)
	r.snap.PageWait = make(map[int32]*WaitAttr)
	r.snap.LockWait = make(map[int32]*WaitAttr)
	r.snap.Timeline = make([][]TimelineBin, nodes)
	r.snap.IntervalNs.Set(int64(r.interval))
	r.shards = make([]regShard, nodes)
	for i := range r.shards {
		r.shards[i] = regShard{
			pageWait: make(map[int32]*WaitAttr),
			lockWait: make(map[int32]*WaitAttr),
		}
	}
	if len(r.syncShards) != nodes {
		r.syncShards = make([]syncCounts, nodes)
	}
}

// Node returns node i's metrics struct for hot-path observation.
func (r *Registry) Node(i int) *NodeMetrics { return &r.snap.Nodes[i] }

// Net returns the interconnect metrics for hot-path observation.
func (r *Registry) Net() *NetMetrics { return &r.snap.Net }

// PageFaultWait attributes d of fault-blocked thread time on node to
// page pg.
func (r *Registry) PageFaultWait(node int, pg int32, d sim.Time) {
	attrAdd(r.shards[node].pageWait, pg, d)
}

// LockAcquireWait attributes d of lock-blocked thread time on node to
// lock id.
func (r *Registry) LockAcquireWait(node int, id int32, d sim.Time) {
	attrAdd(r.shards[node].lockWait, id, d)
}

// FaultCounters exposes the network-layer fault counters for the fault
// model to increment directly. The returned addresses are stable across
// Reset (the snapshot is an embedded value), so they may be installed
// once at system construction.
func (r *Registry) FaultCounters() (dropped, dupped *Counter) {
	return &r.snap.NetDropped, &r.snap.NetDuplicated
}

// CountRetransmit records one reliable-transport retransmission by node.
func (r *Registry) CountRetransmit(node int) { r.shards[node].retransmits++ }

// CountDupSuppressed records one deduped replayed delivery at node.
func (r *Registry) CountDupSuppressed(node int) { r.shards[node].dupSuppressed++ }

// CountLockAcquire records one application-level Lock call by node.
func (r *Registry) CountLockAcquire(node int) { r.syncShards[node].lockAcquires++ }

// CountLockRelease records one application-level Unlock call by node.
func (r *Registry) CountLockRelease(node int) { r.syncShards[node].lockReleases++ }

// CountBarrierArrive records one global-barrier arrival by node.
func (r *Registry) CountBarrierArrive(node int) { r.syncShards[node].barrierArrivals++ }

// CountLocalBarrierArrive records one intra-node barrier arrival by node.
func (r *Registry) CountLocalBarrierArrive(node int) {
	r.syncShards[node].localBarrierArrivals++
}

// CountReduce records one global-reduction arrival by node.
func (r *Registry) CountReduce(node int) { r.syncShards[node].reductions++ }

func attrAdd(m map[int32]*WaitAttr, k int32, d sim.Time) {
	a := m[k]
	if a == nil {
		a = &WaitAttr{}
		m[k] = a
	}
	a.WaitNs += int64(d)
	a.Count++
}

// TimelineAdd distributes the span [start, end) of node's time across
// the timeline bins of the given component. Spans before the epoch
// (pre-steady-state remainders) clamp; spans past the bin cap
// accumulate in TimelineClippedNs.
func (r *Registry) TimelineAdd(node int, start, end sim.Time, comp int) {
	if start < r.epoch {
		start = r.epoch
	}
	if end <= start {
		return
	}
	bins := r.snap.Timeline[node]
	for start < end {
		i := int((start - r.epoch) / r.interval)
		if i >= r.maxBins {
			r.shards[node].clippedNs += int64(end - start)
			break
		}
		for len(bins) <= i {
			bins = append(bins, TimelineBin{})
		}
		binEnd := r.epoch + sim.Time(i+1)*r.interval
		if binEnd > end {
			binEnd = end
		}
		bins[i].add(comp, int64(binEnd-start))
		start = binEnd
	}
	r.snap.Timeline[node] = bins
}

// Reset zeroes every metric and re-anchors the timeline at epoch. The
// system calls it from MarkSteadyState, alongside the statistics reset,
// so metrics cover exactly the steady-state window NodeStats covers.
func (r *Registry) Reset(epoch sim.Time) {
	r.epoch = epoch
	nodes := len(r.snap.Nodes)
	classes := r.snap.MsgClasses
	r.snap = Snapshot{}
	r.configured = false
	r.Configure(nodes, classes)
	r.snap.EpochNs.Set(int64(epoch))
}

// Snapshot returns a deep copy of the collected metrics, folding the
// per-node shards in node order.
func (r *Registry) Snapshot() *Snapshot {
	out := r.snap.Clone()
	if out.PageWait == nil {
		out.PageWait = make(map[int32]*WaitAttr)
	}
	if out.LockWait == nil {
		out.LockWait = make(map[int32]*WaitAttr)
	}
	for i := range r.shards {
		sh := &r.shards[i]
		for k, a := range sh.pageWait {
			mergeAttr(out.PageWait, k, a)
		}
		for k, a := range sh.lockWait {
			mergeAttr(out.LockWait, k, a)
		}
		out.TimelineClippedNs.Add(sh.clippedNs)
		out.Retransmits.Add(sh.retransmits)
		out.DupSuppressed.Add(sh.dupSuppressed)
	}
	for i := range r.syncShards {
		sy := &r.syncShards[i]
		out.LockAcquires.Add(sy.lockAcquires)
		out.LockReleases.Add(sy.lockReleases)
		out.BarrierArrivals.Add(sy.barrierArrivals)
		out.LocalBarrierArrivals.Add(sy.localBarrierArrivals)
		out.Reductions.Add(sy.reductions)
	}
	return out
}

func mergeAttr(m map[int32]*WaitAttr, k int32, a *WaitAttr) {
	dst := m[k]
	if dst == nil {
		dst = &WaitAttr{}
		m[k] = dst
	}
	dst.WaitNs += a.WaitNs
	dst.Count += a.Count
}

// hotEntry is one row of a derived top-N table.
type hotEntry struct {
	id   int32
	attr WaitAttr
}

// topN derives the N highest-wait entries of an attribution map,
// ordered by total wait descending with ascending-id tiebreak, so the
// table is deterministic for a deterministic run.
func topN(m map[int32]*WaitAttr, n int) []hotEntry {
	entries := make([]hotEntry, 0, len(m))
	for id, a := range m {
		entries = append(entries, hotEntry{id, *a})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].attr.WaitNs != entries[j].attr.WaitNs {
			return entries[i].attr.WaitNs > entries[j].attr.WaitNs
		}
		return entries[i].id < entries[j].id
	})
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	return entries
}
