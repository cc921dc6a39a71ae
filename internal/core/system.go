package core

import (
	"errors"
	"fmt"

	"cvm/internal/memsim"
	"cvm/internal/metrics"
	"cvm/internal/netsim"
	"cvm/internal/sim"
	"cvm/internal/trace"
)

// Config parameterizes a simulated CVM cluster.
type Config struct {
	Nodes          int // processors (one per node, as in the paper)
	ThreadsPerNode int // application threads multiplexed per node

	// Protocol selects the coherence protocol: the paper's lazy
	// multi-writer release consistency (default) or the single-writer
	// write-invalidate baseline.
	Protocol Protocol

	PageSize int // coherence unit; the paper uses the Alpha's 8 KB pages

	Net netsim.Params // interconnect costs
	Mem memsim.Params // cache/TLB geometry and costs

	SwitchCost   sim.Time // non-preemptive thread switch (paper: 8 µs)
	SignalCost   sim.Time // user-level SIGSEGV delivery (paper: 98 µs)
	MprotectCost sim.Time // one protection change (paper: 49 µs)

	LockLocalCost    sim.Time // local lock fast path bookkeeping
	LocalBarrierCost sim.Time // local barrier release bookkeeping
	DiffServeCost    sim.Time // handler time to serve a stored diff
	DiffCreateCost   sim.Time // extra handler time to materialize a diff

	// DetectRaces enables the multi-writer data-race detector: the paper
	// notes that "concurrent diffs only overlap if the same location is
	// written by multiple processors without intervening synchronization,
	// which is probably a data race". With this set, every fault compares
	// concurrent incoming diffs pairwise and counts overlaps in
	// NodeStats.RacesDetected (quadratic in diffs per fault; off by
	// default).
	DetectRaces bool

	// LIFOScheduler selects the memory-conscious run-queue discipline
	// the paper proposes in §5 ("closer to LIFO than FIFO"): the most
	// recently readied thread runs first, preserving its cache and TLB
	// state. CVM's original scheduler — and the default here — is FIFO.
	LIFOScheduler bool

	// Tracer, when non-nil, receives every protocol and network event
	// (faults, twins/diffs, lock and barrier steps, thread scheduling,
	// message send/deliver) with virtual timestamps. The hot paths guard
	// each emission with a nil check, so a nil Tracer costs one branch
	// and no allocation. Use trace.NewRecorder and the trace exporters
	// to capture and analyze a run.
	Tracer trace.Tracer

	// Metrics, when non-nil, collects virtual-time histograms, per-page
	// and per-lock wait attribution, and the utilization timeline. Like
	// Tracer, every hot-path observation sits behind a nil check, so a
	// nil Metrics costs one branch and no allocation, and observing
	// never advances virtual time — results are bit-identical with
	// metrics on or off. A Registry serves exactly one System.
	Metrics *metrics.Registry

	// EngineWorkers is the number of OS threads the discrete-event
	// engine runs nodes on (≥ 1). The engine partitions event execution
	// by node and advances all nodes window by window, with windows
	// derived from the network's one-way latency lower bound; each
	// window's nodes are spread across EngineWorkers workers. Results
	// are byte-identical at every worker count (see DESIGN.md §10).
	EngineWorkers int

	// CompressDiffs switches netsim byte accounting for diff replies to
	// the compressed wire encoding (run-length + xor8 prefilter, compact
	// vector clocks — see diffwire.go) instead of the legacy fixed-width
	// form. Off by default so seed-sized baselines stay byte-identical;
	// the scaling study runs both settings to quantify the traffic win.
	// Protocol behavior is unaffected either way — only message sizes,
	// and therefore transfer times, change.
	CompressDiffs bool

	// Adapt enables per-page adaptive coherence: an online classifier
	// consumes the per-epoch fault and write-notice attribution already
	// flowing through the barrier manager, tags each page's sharing
	// pattern (private, migratory, producer-consumer, false-sharing),
	// and switches pages between the default multi-writer invalidate
	// mode, an update mode (diffs pushed eagerly to subscribers), and an
	// exclusive single-writer mode (twin/diff machinery suspended at the
	// owner). Mode changes are epoch-stamped and applied on every node
	// at barrier releases, so all nodes transition consistently. Off by
	// default; with it off no adaptive state is allocated and every run
	// is byte-identical to an unadapted build. Requires ProtocolLRC.
	Adapt bool

	// Migrate enables thread migration as a first-class scheduler
	// action: per-thread remote-access affinity counters ride barrier
	// arrivals, and the controller re-homes a thread next to its hottest
	// pages by shipping its continuation in a ClassMigrate message at a
	// barrier release. Decisions are virtual-time-driven and
	// deterministic at any EngineWorkers count. Off by default.
	// Requires ProtocolLRC. Threads that ever used LocalBarrier are
	// pinned (their node-local aggregation would break if moved).
	Migrate bool

	// AdaptTune overrides the adaptive controller's thresholds; the
	// zero value means defaults (see AdaptTuning). Ignored unless Adapt
	// or Migrate is set.
	AdaptTune AdaptTuning

	// Faults, when non-nil and active, injects deterministic failures:
	// network drops/duplications/reordering/jitter (routed through the
	// reliable transport so the protocol still completes correctly) and
	// node pause/slowdown windows. nil means a perfectly reliable
	// cluster, with zero added cost on any hot path. The same *FaultPlan
	// may be shared across concurrently constructed systems — it is
	// read-only.
	Faults *FaultPlan
}

// DefaultConfig returns the paper's cluster calibration for the given
// shape: Alpha-like memory geometry, ATM-like interconnect, 8 µs thread
// switches.
func DefaultConfig(nodes, threadsPerNode int) Config {
	return Config{
		Nodes:            nodes,
		ThreadsPerNode:   threadsPerNode,
		PageSize:         8 << 10,
		Net:              netsim.DefaultParams(),
		Mem:              memsim.SP2Params(),
		SwitchCost:       8 * sim.Microsecond,
		SignalCost:       98 * sim.Microsecond,
		MprotectCost:     49 * sim.Microsecond,
		LockLocalCost:    3 * sim.Microsecond,
		LocalBarrierCost: 5 * sim.Microsecond,
		DiffServeCost:    10 * sim.Microsecond,
		DiffCreateCost:   40 * sim.Microsecond,
		EngineWorkers:    1,
	}
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return errors.New("core: Nodes must be ≥ 1")
	case c.ThreadsPerNode < 1:
		return errors.New("core: ThreadsPerNode must be ≥ 1")
	case c.PageSize < 64 || c.PageSize&(c.PageSize-1) != 0:
		return fmt.Errorf("core: PageSize %d must be a power of two ≥ 64", c.PageSize)
	case c.EngineWorkers < 1:
		return fmt.Errorf("core: EngineWorkers %d must be ≥ 1", c.EngineWorkers)
	}
	if (c.Adapt || c.Migrate) && c.Protocol != ProtocolLRC {
		return errors.New("core: Adapt/Migrate require the multi-writer LRC protocol")
	}
	// NewSystem runs memsim with the coherence page as its VM page.
	mem := c.Mem
	mem.PageSize = c.PageSize
	if err := mem.Validate(); err != nil {
		return fmt.Errorf("core: Mem: %w", err)
	}
	return nil
}

// Segment names an allocated shared-memory region.
type Segment struct {
	Name string
	Base Addr
	Size int
}

// System is a simulated CVM cluster: the engine, network, per-node
// memory systems, DSM state, and the application threads.
type System struct {
	cfg       Config
	engv      sim.Engine     // the engine, embedded; eng points here
	netv      netsim.Network // the simulated interconnect; net points here
	eng       *sim.Engine
	net       *netsim.Network
	fab       Interconnect // what the protocol sends through; defaults to net
	nodes     []*node
	pageShift uint

	segments  []Segment
	allocated Addr

	episodes       map[int]*barrierEpisode // lazily created
	reduceEpisodes map[int]*reduceEpisode  // lazily created

	started bool
	t0      sim.Time

	// pendingReset defers a MarkSteadyState issued inside a window to
	// the next window commit; -1 means none pending.
	pendingReset sim.Time

	// tracer is nil when cfg.Tracer is; hot paths nil-check this field.
	// Otherwise it points at demux, which buffers per-node and releases
	// to cfg.Tracer in canonical order at every window commit.
	tracer trace.Tracer
	demux  *trace.Demux

	// met mirrors cfg.Metrics; hot paths nil-check the per-node
	// *metrics.NodeMetrics instead where one exists.
	met *metrics.Registry

	// transport is the reliable message envelope, non-nil only when
	// cfg.Faults enables network faults; every protocol send checks it
	// via the sendFromTask/sendFromHandler wrappers.
	transport *reliable

	// adapt is the adaptive-coherence controller, non-nil only when
	// cfg.Adapt or cfg.Migrate is set. It runs exclusively in the
	// barrier manager's (node 0's) engine context, so it needs no
	// locking at any engine worker count.
	adapt *adaptController
}

// NewSystem builds a cluster from cfg.
func NewSystem(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mem.PageSize != cfg.PageSize {
		cfg.Mem.PageSize = cfg.PageSize
	}
	s := &System{
		cfg:          cfg,
		pageShift:    log2(cfg.PageSize),
		met:          cfg.Metrics,
		pendingReset: -1,
	}
	// Per-node work runs inside lookahead-bounded windows and cross-node
	// messages defer to the window commit. The lookahead is the
	// interconnect's one-way latency lower bound, which every protocol
	// interaction pays before touching another node.
	s.engv.Init(cfg.EngineWorkers, cfg.Net.Lookahead())
	s.eng = &s.engv
	s.netv.Init(s.eng, cfg.Nodes, cfg.Net)
	s.net = &s.netv
	s.fab = s.net
	eng := s.eng
	eng.SetWindowHook((*windowHook)(s))
	if cfg.Tracer != nil {
		s.demux = trace.NewDemux(cfg.Nodes, cfg.Tracer)
		s.tracer = s.demux
		s.net.SetTracer(s.demux)
	}
	if s.met != nil {
		classes := netsim.Classes()
		if !cfg.Adapt && !cfg.Migrate {
			// The adaptive classes (Update, Migrate) carry no traffic in
			// a plain LRC run; leaving them out keeps the metrics schema
			// — and so BASELINE_metrics.json — identical to pre-adaptive
			// builds. Indexing past the registered classes would panic,
			// which doubles as a tripwire for stray adaptive messages.
			classes = classes[:netsim.ClassUpdate]
		}
		names := make([]string, len(classes))
		for i, c := range classes {
			names[i] = c.String()
		}
		s.met.Configure(cfg.Nodes, names)
		s.net.SetMetrics(s.met.Net())
	}
	for i := 0; i < cfg.Nodes; i++ {
		proc := eng.AddProc(cfg.SwitchCost)
		proc.SetLIFO(cfg.LIFOScheduler)
		s.nodes = append(s.nodes, newNode(s, i, proc))
	}
	if fp := cfg.Faults; fp != nil {
		if err := fp.Validate(cfg.Nodes); err != nil {
			return nil, err
		}
		if fp.Net.Active() {
			net := fp.Net // private copy; the plan may be shared across systems
			s.net.SetFaults(&net)
			if s.met != nil {
				s.net.SetFaultCounters(s.met.FaultCounters())
			}
			s.transport = newTransport(s, fp.RTO, fp.MaxRetries)
		}
		for _, p := range fp.Pauses {
			s.nodes[p.Node].proc.InjectPause(p.From, p.To)
		}
		for _, sl := range fp.Slowdowns {
			s.nodes[sl.Node].proc.InjectSlowdown(sl.From, sl.To, sl.Factor)
		}
	}
	if cfg.Adapt || cfg.Migrate {
		s.adapt = newAdaptController(s)
	}
	eng.SetReasonNamer(reasonName)
	return s, nil
}

// windowHook is the System in its role as the engine's window hook.
// Converting *System to it costs nothing, where a method value would
// allocate on every cluster construction.
type windowHook System

// CommitWindow runs with every proc quiescent at the window boundary: it
// applies a deferred steady-state reset, commits the deferred network
// traffic, and releases the window's trace events in canonical order.
// Each step is a pure function of simulation state, keeping the commit
// identical at every worker count.
func (h *windowHook) CommitWindow(limit sim.Time) {
	s := (*System)(h)
	if s.pendingReset >= 0 {
		t0 := s.pendingReset
		s.pendingReset = -1
		s.applySteadyReset(t0)
	}
	s.net.CommitWindow(limit)
	if s.demux != nil {
		s.demux.Flush(limit)
	}
}

// reasonName names the core block reasons in engine deadlock reports.
func reasonName(r sim.Reason) string {
	switch r {
	case ReasonFault:
		return "fault"
	case ReasonLock:
		return "lock"
	case ReasonBarrier:
		return "barrier"
	default:
		return fmt.Sprintf("%d", int(r))
	}
}

// Config returns the system's configuration.
func (s *System) Config() Config { return s.cfg }

// Engine exposes the underlying simulator (for tests and tools).
func (s *System) Engine() *sim.Engine { return s.eng }

// Network exposes the simulated interconnect (for traffic statistics).
func (s *System) Network() *netsim.Network { return s.net }

// Alloc reserves a page-aligned shared segment and returns its base
// address. All allocation must happen before Start.
func (s *System) Alloc(name string, size int) (Addr, error) {
	if s.started {
		return 0, errors.New("core: Alloc after Start")
	}
	if size <= 0 {
		return 0, fmt.Errorf("core: Alloc %q with size %d", name, size)
	}
	base := s.allocated
	pages := (size + s.cfg.PageSize - 1) / s.cfg.PageSize
	s.allocated += Addr(pages * s.cfg.PageSize)
	s.segments = append(s.segments, Segment{Name: name, Base: base, Size: size})
	return base, nil
}

// Segments returns the allocated shared segments.
func (s *System) Segments() []Segment { return s.segments }

// Start spawns Nodes × ThreadsPerNode application threads, each running
// main. Threads are numbered contiguously per node.
func (s *System) Start(main func(*Thread)) error {
	if s.started {
		return errors.New("core: Start called twice")
	}
	s.started = true
	totalPages := int(s.allocated) >> s.pageShift
	for _, n := range s.nodes {
		n.initPages(totalPages)
	}
	for i := 0; i < s.cfg.Nodes; i++ {
		n := s.nodes[i]
		n.resident = s.cfg.ThreadsPerNode
		if s.cfg.Adapt {
			n.adaptObs = make(map[PageID]int32)
			n.adaptHits = make(map[PageID]int32)
		}
		n.threads = make([]Thread, s.cfg.ThreadsPerNode)
		for j := range n.threads {
			th := &n.threads[j]
			th.node = n
			th.sys = s
			th.gid = i*s.cfg.ThreadsPerNode + j
			th.lid = j
			th.main = main
			if s.cfg.Migrate {
				th.affinity = make([]int64, s.cfg.Nodes)
				n.residents = append(n.residents, th)
			}
			// Threads implement sim.Runner and carry precomputed names,
			// so spawning allocates neither a closure nor a string for
			// common cluster shapes.
			th.task = s.eng.SpawnRunner(n.proc, threadName(i, j), th)
		}
	}
	return nil
}

// Run executes the simulation to completion. Under fault injection a
// message that exhausts its retransmission budget aborts the run with
// an error wrapping ErrTransport instead of hanging.
func (s *System) Run() (err error) {
	defer func() {
		if err != nil {
			s.eng.Shutdown()
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			tf, ok := r.(*transportFailure)
			if !ok {
				panic(r)
			}
			err = tf.error()
		}
	}()
	defer func() {
		// Release trace events still buffered past the final window
		// commit (including the tail of a failed run).
		if s.demux != nil {
			s.demux.FlushAll()
		}
	}()
	return s.eng.Run()
}

// threadOf maps an engine task back to its application thread. Threads
// are spawned in global-ID order, so a thread's task ID equals its gid;
// the identity check rejects any other task.
func (s *System) threadOf(task *sim.Task) *Thread {
	if task == nil {
		return nil
	}
	th := s.thread(task.ID())
	if th == nil || th.task != task {
		return nil
	}
	return th
}

// thread returns the thread with global id gid, or nil before Start or
// for an id outside the cluster. A thread's struct stays in its home
// node's threads slice when it migrates, so the home layout finds it.
func (s *System) thread(gid int) *Thread {
	t := s.cfg.ThreadsPerNode
	if gid < 0 || gid/t >= len(s.nodes) {
		return nil
	}
	if ths := s.nodes[gid/t].threads; gid%t < len(ths) {
		return &ths[gid%t]
	}
	return nil
}

// threadNames precomputes the diagnostic names of threads in common
// cluster shapes so Start does not allocate one string per thread.
var threadNames [16][16]string

func init() {
	for i := range threadNames {
		for j := range threadNames[i] {
			threadNames[i][j] = fmt.Sprintf("n%dt%d", i, j)
		}
	}
}

func threadName(i, j int) string {
	if i < len(threadNames) && j < len(threadNames[i]) {
		return threadNames[i][j]
	}
	return fmt.Sprintf("n%dt%d", i, j)
}

// MarkSteadyState zeroes every statistics counter and sets the time
// origin, so that reported results cover only the steady-state portion of
// the run. Applications call it from one thread immediately after their
// initialization barrier, mirroring the paper's exclusion of startup.
func (t *Thread) MarkSteadyState() {
	// Other nodes are mid-window; defer the reset to the next window
	// commit, where the engine is quiescent. The reset instant recorded
	// is still this thread's call time, so t0 and the metrics epoch are
	// exact.
	s := t.sys
	if s.pendingReset < 0 || t.task.Now() < s.pendingReset {
		s.pendingReset = t.task.Now()
	}
}

// applySteadyReset performs the MarkSteadyState reset with the engine
// quiescent (the window commit).
func (s *System) applySteadyReset(t0 sim.Time) {
	s.t0 = t0
	s.net.ResetStats()
	for _, n := range s.nodes {
		n.stats = NodeStats{}
		n.mem.ResetStats()
	}
	if s.met != nil {
		// Metrics reset at the same instant as the statistics, so
		// histogram sums keep reconciling exactly with NodeStats.
		s.met.Reset(t0)
		s.net.SetMetrics(s.met.Net())
		for _, n := range s.nodes {
			n.met = s.met.Node(n.id)
		}
	}
}

// RunStats aggregates a finished run's statistics.
type RunStats struct {
	Nodes    []NodeStats // per-node DSM counters and time breakdown
	Mem      []memsim.Stats
	Net      netsim.Stats
	Total    NodeStats    // sum over nodes
	MemTotal memsim.Stats // sum over nodes
	Wall     sim.Time     // steady-state wall time (max node clock − t0)
}

// Stats collects the run's statistics. Call after Run returns.
func (s *System) Stats() RunStats {
	rs := RunStats{
		Net:   s.net.Stats(),
		Nodes: make([]NodeStats, 0, len(s.nodes)),
		Mem:   make([]memsim.Stats, 0, len(s.nodes)),
	}
	for _, n := range s.nodes {
		rs.Nodes = append(rs.Nodes, n.stats)
		rs.Total.Add(n.stats)
		ms := n.mem.Stats()
		rs.Mem = append(rs.Mem, ms)
		rs.MemTotal.Add(ms)
		if wall := n.proc.Clock() - s.t0; wall > rs.Wall {
			rs.Wall = wall
		}
	}
	return rs
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}
