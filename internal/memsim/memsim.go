// Package memsim models each node's memory hierarchy: a set-associative
// data cache, a set-associative data TLB, and an instruction TLB driven by
// a synthetic code-footprint model. It produces the D-cache / D-TLB /
// I-TLB miss counts of the paper's Figure 2 and charges hit and miss costs
// into simulated user time.
//
// The paper measured Figure 2 on an IBM SP-2 (64 KB per-processor caches,
// CVM forced to the Alpha's 8 KB page size); SP2Params reproduces that
// geometry. The I-TLB model is synthetic — a simulation has no instruction
// stream — and works from per-thread phase footprints: every access touches
// the pages of the thread's current code phase, and every thread switch
// touches scheduler code, so I-TLB pressure grows with switching exactly as
// the paper observes.
package memsim

import (
	"fmt"

	"cvm/internal/sim"
)

// Params describes one node's memory system.
type Params struct {
	CacheSize int // data cache capacity in bytes
	LineSize  int // cache line size in bytes
	CacheWays int // data cache associativity

	PageSize int // virtual memory page size in bytes
	DTLBSets int // data TLB sets
	DTLBWays int // data TLB associativity
	ITLBSets int // instruction TLB sets
	ITLBWays int // instruction TLB associativity

	HitCost      sim.Time // charged on every access (load/store + ALU work)
	CacheMissPen sim.Time // extra on a data cache miss
	TLBMissPen   sim.Time // extra on a data TLB miss
	ITLBMissPen  sim.Time // extra on an instruction TLB miss
}

// SP2Params models the paper's SP-2 configuration: 64 KB data cache and
// the Alpha's 8 KB pages forced as the coherence and paging unit.
func SP2Params() Params {
	return Params{
		// Geometry is scaled below the SP-2's physical 64 KB cache and
		// 512-entry TLB in proportion to the reduced default input
		// sizes, so locality effects (Figure 2) appear at the same
		// relative working-set pressure the paper measured.
		CacheSize:    32 << 10,
		LineSize:     64,
		CacheWays:    4,
		PageSize:     8 << 10,
		DTLBSets:     8,
		DTLBWays:     2,
		ITLBSets:     4,
		ITLBWays:     2,
		HitCost:      50 * sim.Nanosecond,
		CacheMissPen: 200 * sim.Nanosecond,
		TLBMissPen:   350 * sim.Nanosecond,
		ITLBMissPen:  350 * sim.Nanosecond,
	}
}

// AlphaParams models one Alpha 2100 4/275 processor: 16 KB direct-mapped
// first-level cache and 8 KB pages. (The 4 MB second-level cache is not
// modeled; first-level misses dominate the locality effects of interest.)
func AlphaParams() Params {
	p := SP2Params()
	p.CacheSize = 16 << 10
	p.LineSize = 32
	p.CacheWays = 1
	return p
}

// Validate reports a geometry the model cannot represent exactly. Line
// and page sizes must be powers of two, since addresses are split into
// line and page numbers by shifts; every set count must be a power of
// two, since a key's set is its low bits; every associativity must be
// at least one; a page must hold whole lines; and the cache must hold
// whole sets.
func (p Params) Validate() error {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	switch {
	case !pow2(p.LineSize):
		return fmt.Errorf("memsim: LineSize %d is not a power of two", p.LineSize)
	case !pow2(p.PageSize):
		return fmt.Errorf("memsim: PageSize %d is not a power of two", p.PageSize)
	case p.PageSize < p.LineSize:
		return fmt.Errorf("memsim: PageSize %d is smaller than LineSize %d", p.PageSize, p.LineSize)
	case p.CacheWays < 1:
		return fmt.Errorf("memsim: CacheWays %d must be at least 1", p.CacheWays)
	case p.DTLBWays < 1:
		return fmt.Errorf("memsim: DTLBWays %d must be at least 1", p.DTLBWays)
	case p.ITLBWays < 1:
		return fmt.Errorf("memsim: ITLBWays %d must be at least 1", p.ITLBWays)
	case !pow2(p.DTLBSets):
		return fmt.Errorf("memsim: DTLBSets %d is not a power of two", p.DTLBSets)
	case !pow2(p.ITLBSets):
		return fmt.Errorf("memsim: ITLBSets %d is not a power of two", p.ITLBSets)
	}
	setBytes := p.LineSize * p.CacheWays
	if sets := p.CacheSize / setBytes; p.CacheSize%setBytes != 0 || !pow2(sets) {
		return fmt.Errorf("memsim: CacheSize %d is not a power-of-two number of %d-byte sets (LineSize × CacheWays)",
			p.CacheSize, setBytes)
	}
	return nil
}

// Stats holds cumulative counters for one node's memory system.
type Stats struct {
	Accesses     int64
	DCacheMisses int64
	DTLBMisses   int64
	ITLBMisses   int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Accesses += other.Accesses
	s.DCacheMisses += other.DCacheMisses
	s.DTLBMisses += other.DTLBMisses
	s.ITLBMisses += other.ITLBMisses
}

// assoc is a set-associative tag array with per-set LRU replacement. It
// backs both the cache and the TLBs. The tag and stamp arrays are slices
// of one shared backing array (see System.Init), so a whole hierarchy
// costs a single allocation. The set count is a power of two
// (Params.Validate), so a key's set is its low bits, key & mask.
type assoc struct {
	mask  uint64 // sets-1
	ways  int
	tags  []uint64 // sets*ways entries; tag 0 means empty (tags stored +1)
	stamp []uint64 // LRU stamps, parallel to tags
	tick  uint64
}

func (a *assoc) init(sets, ways int, backing []uint64) {
	n := sets * ways
	a.mask = uint64(sets - 1)
	a.ways = ways
	a.tags = backing[:n:n]
	a.stamp = backing[n : 2*n : 2*n]
}

// touch looks up key; it returns true on hit. On miss the LRU way of the
// set (the first way holding the set's least stamp) is replaced. Both
// scans run over every way without early exit, so they compile to
// conditional moves: which way hits, and which is oldest, is data the
// host cannot predict.
func (a *assoc) touch(key uint64) bool {
	base := int(key&a.mask) * a.ways
	a.tick++
	stored := key + 1
	tags := a.tags[base : base+a.ways]
	stamps := a.stamp[base : base+a.ways]
	hit := -1
	for i, t := range tags {
		if t == stored {
			hit = i
		}
	}
	if hit >= 0 {
		stamps[hit] = a.tick
		return true
	}
	victim, oldest := 0, stamps[0]
	for i, st := range stamps {
		if st < oldest {
			victim, oldest = i, st
		}
	}
	tags[victim] = stored
	stamps[victim] = a.tick
	return false
}

// find returns the way index currently holding key, or -1.
func (a *assoc) find(key uint64) int {
	base := int(key&a.mask) * a.ways
	stored := key + 1
	for i := base; i < base+a.ways; i++ {
		if a.tags[i] == stored {
			return i
		}
	}
	return -1
}

// System simulates one node's memory hierarchy. The zero value is not
// ready for use; construct with NewSystem or embed and call Init.
type System struct {
	params Params
	dcache assoc
	dtlb   assoc
	itlb   assoc
	stats  Stats

	lineShift uint
	pageShift uint

	// lastLine/lastPage are the line and page of the previous data
	// access: the cache line and D-TLB entry it touched last, which are
	// therefore resident and most recently used in their sets (see
	// Access). noMemo disables every shortcut that rests on them;
	// equivalence tests use it as the plain full-walk reference.
	lastLine uint64
	lastPage uint64
	noMemo   bool
}

// invalidKey is a line or page tag no real access can produce (addresses
// are below 2^42), marking the memo empty.
const invalidKey = ^uint64(0)

// NewSystem returns a memory system with the given geometry.
func NewSystem(p Params) *System {
	s := new(System)
	s.Init(p)
	return s
}

// Init configures s in place with the given geometry, replacing any
// previous state. It exists so a System can be embedded by value in a
// larger per-node structure; the whole hierarchy then costs one backing
// allocation. It panics if p fails Validate.
func (s *System) Init(p Params) {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	cacheSets := p.CacheSize / (p.LineSize * p.CacheWays)
	nc := cacheSets * p.CacheWays
	nd := p.DTLBSets * p.DTLBWays
	ni := p.ITLBSets * p.ITLBWays
	backing := make([]uint64, 2*(nc+nd+ni))
	*s = System{
		params:    p,
		lineShift: log2(p.LineSize),
		pageShift: log2(p.PageSize),
		lastLine:  invalidKey,
		lastPage:  invalidKey,
	}
	s.dcache.init(cacheSets, p.CacheWays, backing[:2*nc])
	s.dtlb.init(p.DTLBSets, p.DTLBWays, backing[2*nc:2*(nc+nd)])
	s.itlb.init(p.ITLBSets, p.ITLBWays, backing[2*(nc+nd):])
}

// Params returns the system's geometry.
func (s *System) Params() Params { return s.params }

// Stats returns a snapshot of the miss counters.
func (s *System) Stats() Stats { return s.stats }

// ResetStats zeroes the counters (cache and TLB contents are kept).
func (s *System) ResetStats() { s.stats = Stats{} }

// Access simulates one data access at the given virtual address and
// returns the time cost to charge to the accessing thread.
//
// Two shortcuts skip tag-array walks whose outcome is already known.
// An access to the previous access's cache line is a guaranteed double
// hit (the line is resident and, since PageSize ≥ LineSize, so is its
// page), so a contiguous sweep pays the walk once per line rather than
// once per element. An access to the previous access's page skips the
// D-TLB walk: that page is the D-TLB's most recently touched entry. Miss
// counts and charged costs are bit-identical to the full walk: skipping
// a touch of the most recent way of a set leaves the relative LRU order
// of every set unchanged (TestAccessMemoEquivalence checks this against
// the noMemo reference).
func (s *System) Access(addr uint64) sim.Time {
	line := addr >> s.lineShift
	s.stats.Accesses++
	if line == s.lastLine && !s.noMemo {
		return s.params.HitCost
	}
	return s.touchLine(line, addr>>s.pageShift)
}

// touchLine runs the tag-array walks of one access to line in page pg,
// except Accesses++, and returns its cost.
func (s *System) touchLine(line, pg uint64) sim.Time {
	s.lastLine = line
	cost := s.params.HitCost
	if !s.dcache.touch(line) {
		s.stats.DCacheMisses++
		cost += s.params.CacheMissPen
	}
	if pg != s.lastPage || s.noMemo {
		s.lastPage = pg
		if !s.dtlb.touch(pg) {
			s.stats.DTLBMisses++
			cost += s.params.TLBMissPen
		}
	}
	return cost
}

// AccessStride8 simulates cnt sequential 8-byte data accesses starting at
// addr (a typed-array span) and returns the total cost. Counters, costs,
// and replacement state are bit-identical to cnt scalar Access calls:
// after the first access of a cache line, the scalar path's remaining
// accesses in that line are guaranteed memo hits (same line), so their
// effect — Accesses++ and HitCost each, no tag-array activity — is
// applied in bulk without re-running the per-access checks.
func (s *System) AccessStride8(addr uint64, cnt int) sim.Time {
	if s.noMemo {
		var cost sim.Time
		for i := 0; i < cnt; i++ {
			cost += s.Access(addr + uint64(i)*8)
		}
		return cost
	}
	var cost sim.Time
	line := uint64(s.params.LineSize)
	for cnt > 0 {
		lineEnd := (addr &^ (line - 1)) + line
		k := int((lineEnd - addr + 7) / 8)
		if k > cnt {
			k = cnt
		}
		cost += s.Access(addr)
		if k > 1 {
			s.stats.Accesses += int64(k - 1)
			cost += sim.Time(k-1) * s.params.HitCost
		}
		addr += uint64(k) * 8
		cnt -= k
	}
	return cost
}

// AccessRange simulates a sequential multi-byte access (e.g. a block copy)
// touching every line in [addr, addr+n), with the counters, cost and
// memo state of one Access per line. Only the first line can repeat the
// previous access's line, so the lines after it skip the memo test and
// go straight to the tag walks, and the D-TLB is walked at most once
// per page the range enters (every line under noMemo).
func (s *System) AccessRange(addr uint64, n int) sim.Time {
	line := uint64(s.params.LineSize)
	a := addr &^ (line - 1)
	end := addr + uint64(n)
	if a >= end {
		return 0
	}
	cost := s.Access(a)
	for a += line; a < end; a += line {
		s.stats.Accesses++
		cost += s.touchLine(a>>s.lineShift, a>>s.pageShift)
	}
	return cost
}

// InstrTouch simulates instruction fetch from the given synthetic code
// page and returns the cost to charge (zero on an I-TLB hit).
func (s *System) InstrTouch(codePage uint64) sim.Time {
	if s.itlb.touch(codePage) {
		return 0
	}
	s.stats.ITLBMisses++
	return s.params.ITLBMissPen
}

// InstrTouchCycle simulates cnt instruction fetches cycling through a
// phase's code pages — page base + (start+i) % mod for i = 1..cnt — and
// returns the total cost. It is the bulk form of the per-access rotating
// InstrTouch in a thread's charge loop, bit-identical in miss counts,
// costs, tick, and per-entry LRU stamps: after one full warm cycle every
// code page is resident, and since hits evict nothing, the remaining
// touches are all hits whose only effect is advancing the LRU clock and
// refreshing each page's stamp to its final touch time.
func (s *System) InstrTouchCycle(base uint64, mod, start, cnt int) sim.Time {
	if mod <= 0 || cnt <= 0 {
		return 0
	}
	if cnt <= 2*mod || !s.itlbCycleSafe(mod) {
		var cost sim.Time
		for i := 1; i <= cnt; i++ {
			cost += s.InstrTouch(base + uint64(start+i)%uint64(mod))
		}
		return cost
	}
	tick0 := s.itlb.tick
	var cost sim.Time
	for i := 1; i <= mod; i++ {
		cost += s.InstrTouch(base + uint64(start+i)%uint64(mod))
	}
	// The remaining cnt-mod touches are guaranteed hits; replay their
	// tick and stamp effects in bulk.
	s.itlb.tick = tick0 + uint64(cnt)
	for c := 0; c < mod; c++ {
		// Last step i in 1..cnt with (start+i) % mod == c.
		last := cnt - (start+cnt-c)%mod
		if w := s.itlb.find(base + uint64(c)); w >= 0 {
			s.itlb.stamp[w] = tick0 + uint64(last)
		}
	}
	return cost
}

// itlbCycleSafe reports whether mod consecutive code pages fit in the
// I-TLB without self-eviction: no set receives more cycle pages than it
// has ways. Consecutive keys spread round-robin over sets, so the
// per-set population is at most ceil(mod/sets).
func (s *System) itlbCycleSafe(mod int) bool {
	sets := int(s.itlb.mask) + 1
	return (mod+sets-1)/sets <= s.itlb.ways
}

func log2(n int) uint {
	var b uint
	for 1<<b < n {
		b++
	}
	return b
}
