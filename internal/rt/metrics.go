package rt

import (
	"sync"
	"time"

	"cvm/internal/metrics"
	"cvm/internal/trace"
	"cvm/internal/transport"
)

// publish makes the run's nodes visible to Status and MetricsSnapshot
// and configures the metrics registry for the cluster, both under
// runMu so a concurrent MetricsSnapshot never sees a half-configured
// registry.
func (c *Cluster) publish(nodes []*rnode) {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if m := c.cfg.Metrics; m != nil {
		classes := make([]string, 0, transport.NumClasses)
		for _, cl := range transport.Classes() {
			classes = append(classes, cl.String())
		}
		m.Configure(c.cfg.Nodes, classes)
	}
	c.rnodes = nodes
}

// MetricsSnapshot returns the metrics collected so far, or nil when the
// cluster collects none or its run has not started. It holds every
// local node's metMu while the registry folds its shards, so it is safe
// to call concurrently with the run — the debug server scrapes mid-run.
// Nodes is sized for the whole cluster; under RunNode only this
// process's node is populated.
func (c *Cluster) MetricsSnapshot() *metrics.Snapshot {
	c.runMu.Lock()
	defer c.runMu.Unlock()
	if c.cfg.Metrics == nil || c.rnodes == nil {
		return nil
	}
	for _, n := range c.rnodes {
		n.metMu.Lock()
		defer n.metMu.Unlock()
	}
	return c.cfg.Metrics.Snapshot()
}

// observe applies fn, which observes only into this node's shard, to
// the run's registry under metMu. It is a no-op when the run collects
// no metrics. Caller holds tok, so the shard has one writer at a time;
// metMu only orders the observation against a concurrent
// MetricsSnapshot.
func (n *rnode) observe(fn func(m *metrics.Registry)) {
	if n.met == nil {
		return
	}
	n.metMu.Lock()
	fn(n.met)
	n.metMu.Unlock()
}

// lockedTracer serializes Emit calls: trace.Recorder is not
// thread-safe, and a real cluster's workers and dispatcher emit
// concurrently.
type lockedTracer struct {
	mu sync.Mutex
	tr trace.Tracer
}

// lockedTracer wraps the configured tracer, or returns nil without one.
func (c *Cluster) lockedTracer() *lockedTracer {
	if c.cfg.Tracer == nil {
		return nil
	}
	return &lockedTracer{tr: c.cfg.Tracer}
}

func (lt *lockedTracer) emit(e trace.Event) {
	lt.mu.Lock()
	lt.tr.Emit(e)
	lt.mu.Unlock()
}

// Thread states surfaced by Cluster.Status. Stored per worker as an
// atomic so the debug server reads them without touching the run token.
const (
	tsStarting int32 = iota
	tsRunning
	tsFault
	tsLock
	tsBarrier
	tsReduce
	tsDone
)

var tsNames = [...]string{"starting", "running", "fault-wait", "lock-wait",
	"barrier-wait", "reduce-wait", "done"}

func tsName(s int32) string {
	if s < 0 || int(s) >= len(tsNames) {
		return "unknown"
	}
	return tsNames[s]
}

// NodeStatus is one node's live introspection snapshot, served by the
// cvm-node debug endpoint as /status.
type NodeStatus struct {
	Node    int          `json:"node"`
	Epoch   uint64       `json:"epoch"`
	Threads []string     `json:"threads"`
	Failure string       `json:"failure,omitempty"`
	Peers   []PeerStatus `json:"peers,omitempty"`
}

// PeerStatus is the sent-side traffic toward one peer, with its
// transport address — nonzero growth over successive scrapes is the
// liveness signal.
type PeerStatus struct {
	Peer  int    `json:"peer"`
	Addr  string `json:"addr"`
	Msgs  int64  `json:"msgs"`
	Bytes int64  `json:"bytes"`
}

// Status reports the live state of every node running in this process:
// one entry per node for RunLoopback, one for RunNode, empty before
// the run starts. Safe to call concurrently with the run.
func (c *Cluster) Status() []NodeStatus {
	c.runMu.Lock()
	nodes := append([]*rnode(nil), c.rnodes...)
	c.runMu.Unlock()
	out := make([]NodeStatus, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n.status())
	}
	return out
}

func (n *rnode) status() NodeStatus {
	st := NodeStatus{Node: n.self, Epoch: n.epoch.Load()}
	st.Threads = make([]string, len(n.tstate))
	for i := range n.tstate {
		st.Threads[i] = tsName(n.tstate[i].Load())
	}
	if err := n.failure(); err != nil {
		st.Failure = err.Error()
	}
	stats := n.conn.Stats()
	for j := range stats.Peers {
		if j == n.self {
			continue
		}
		p := &stats.Peers[j]
		st.Peers = append(st.Peers, PeerStatus{
			Peer:  j,
			Addr:  n.conn.PeerAddr(transport.NodeID(j)),
			Msgs:  p.TotalMsgs(),
			Bytes: p.TotalBytes(),
		})
	}
	return st
}

// RealStats converts a run's wall time and transport totals into a
// report's Real section (shared by cvm-run's loopback path and
// cvm-node's cluster path).
func RealStats(backend string, nodes int, elapsed time.Duration, st transport.Stats) *metrics.RealStats {
	re := &metrics.RealStats{
		Backend:   backend,
		Nodes:     nodes,
		ElapsedNs: elapsed.Nanoseconds(),
	}
	for _, cl := range transport.Classes() {
		re.Classes = append(re.Classes, metrics.RealClassStat{
			Class: cl.String(), Msgs: st.Msgs[cl], Bytes: st.Bytes[cl],
		})
	}
	for j := range st.Peers {
		p := &st.Peers[j]
		if p.TotalMsgs() == 0 {
			continue
		}
		re.Peers = append(re.Peers, metrics.RealPeerStat{
			Peer: j, Msgs: p.TotalMsgs(), Bytes: p.TotalBytes(),
		})
	}
	return re
}
