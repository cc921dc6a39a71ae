package memsim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"cvm/internal/sim"
)

func TestColdMissThenHit(t *testing.T) {
	s := NewSystem(SP2Params())
	c1 := s.Access(0x1000)
	c2 := s.Access(0x1000)
	if c1 <= c2 {
		t.Errorf("cold access cost %v not greater than warm cost %v", c1, c2)
	}
	st := s.Stats()
	if st.Accesses != 2 {
		t.Errorf("accesses = %d, want 2", st.Accesses)
	}
	if st.DCacheMisses != 1 {
		t.Errorf("dcache misses = %d, want 1", st.DCacheMisses)
	}
	if st.DTLBMisses != 1 {
		t.Errorf("dtlb misses = %d, want 1", st.DTLBMisses)
	}
	if c2 != SP2Params().HitCost {
		t.Errorf("warm cost = %v, want pure hit cost %v", c2, SP2Params().HitCost)
	}
}

func TestSameLineSharesEntry(t *testing.T) {
	s := NewSystem(SP2Params())
	s.Access(0x2000)
	if got := s.Access(0x2000 + 8); got != SP2Params().HitCost {
		t.Errorf("same-line access cost = %v, want hit", got)
	}
	if s.Stats().DCacheMisses != 1 {
		t.Errorf("dcache misses = %d, want 1", s.Stats().DCacheMisses)
	}
}

func TestCapacityEviction(t *testing.T) {
	p := SP2Params()
	s := NewSystem(p)
	// Stream through 2x the cache size, then revisit the start: the first
	// lines must have been evicted.
	span := 2 * p.CacheSize
	for a := 0; a < span; a += p.LineSize {
		s.Access(uint64(a))
	}
	before := s.Stats().DCacheMisses
	s.Access(0)
	if s.Stats().DCacheMisses != before+1 {
		t.Error("line 0 survived a 2x-capacity streaming sweep")
	}
}

func TestLRUWithinSet(t *testing.T) {
	// With 4 ways, 4 distinct tags mapping to one set all fit; a 5th
	// evicts the least recently used.
	p := SP2Params()
	s := NewSystem(p)
	sets := p.CacheSize / (p.LineSize * p.CacheWays)
	stride := uint64(sets * p.LineSize) // same set every time
	for i := uint64(0); i < 4; i++ {
		s.Access(i * stride)
	}
	// Touch tag 0 to make tag 1 the LRU victim.
	s.Access(0)
	s.Access(4 * stride) // evicts tag 1
	before := s.Stats().DCacheMisses
	s.Access(0) // still resident
	if s.Stats().DCacheMisses != before {
		t.Error("recently-used line was evicted instead of LRU line")
	}
	s.Access(1 * stride) // evicted: must miss
	if s.Stats().DCacheMisses != before+1 {
		t.Error("LRU line was not evicted")
	}
}

func TestDTLBPageGranularity(t *testing.T) {
	p := SP2Params()
	s := NewSystem(p)
	s.Access(0)
	s.Access(uint64(p.PageSize - 8)) // same page, different line
	if s.Stats().DTLBMisses != 1 {
		t.Errorf("dtlb misses = %d, want 1 (same page)", s.Stats().DTLBMisses)
	}
	s.Access(uint64(p.PageSize)) // next page
	if s.Stats().DTLBMisses != 2 {
		t.Errorf("dtlb misses = %d, want 2", s.Stats().DTLBMisses)
	}
}

func TestITLBModel(t *testing.T) {
	s := NewSystem(SP2Params())
	if cost := s.InstrTouch(1); cost == 0 {
		t.Error("cold I-TLB touch cost = 0, want miss penalty")
	}
	if cost := s.InstrTouch(1); cost != 0 {
		t.Error("warm I-TLB touch cost != 0")
	}
	if s.Stats().ITLBMisses != 1 {
		t.Errorf("itlb misses = %d, want 1", s.Stats().ITLBMisses)
	}
	// Cycling through more code pages than the I-TLB holds must keep
	// missing.
	p := SP2Params()
	capacity := p.ITLBSets * p.ITLBWays
	before := s.Stats().ITLBMisses
	for round := 0; round < 3; round++ {
		for pg := uint64(100); pg < uint64(100+2*capacity); pg++ {
			s.InstrTouch(pg)
		}
	}
	got := s.Stats().ITLBMisses - before
	if got < int64(4*capacity) {
		t.Errorf("thrashing I-TLB missed %d times, want ≥ %d", got, 4*capacity)
	}
}

func TestAccessRangeTouchesEveryLine(t *testing.T) {
	p := SP2Params()
	s := NewSystem(p)
	s.AccessRange(0, 8*p.LineSize)
	if got := s.Stats().DCacheMisses; got != 8 {
		t.Errorf("range sweep missed %d lines, want 8", got)
	}
}

func TestThreadInterleavingDegradesLocality(t *testing.T) {
	// The paper's central memory-system observation: interleaving the
	// access streams of multiple threads produces more cache misses than
	// running the same streams back-to-back.
	p := SP2Params()
	run := func(interleave bool) int64 {
		s := NewSystem(p)
		const threads = 4
		const footprint = 24 << 10 // per-thread working set: under capacity
		const rounds = 6
		if interleave {
			for r := 0; r < rounds; r++ {
				for th := 0; th < threads; th++ {
					base := uint64(th) << 30
					for a := 0; a < footprint; a += p.LineSize {
						s.Access(base + uint64(a))
					}
				}
			}
		} else {
			for th := 0; th < threads; th++ {
				base := uint64(th) << 30
				for r := 0; r < rounds; r++ {
					for a := 0; a < footprint; a += p.LineSize {
						s.Access(base + uint64(a))
					}
				}
			}
		}
		return s.Stats().DCacheMisses
	}
	solo, mixed := run(false), run(true)
	if mixed <= solo {
		t.Errorf("interleaved misses %d not greater than sequential %d", mixed, solo)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 1, DCacheMisses: 2, DTLBMisses: 3, ITLBMisses: 4}
	b := Stats{Accesses: 10, DCacheMisses: 20, DTLBMisses: 30, ITLBMisses: 40}
	a.Add(b)
	want := Stats{Accesses: 11, DCacheMisses: 22, DTLBMisses: 33, ITLBMisses: 44}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
}

func TestAssocPropertyHitAfterTouch(t *testing.T) {
	// Property: immediately re-touching any key is always a hit.
	f := func(keys []uint64) bool {
		a := new(assoc)
		a.init(16, 4, make([]uint64, 2*16*4))
		for _, k := range keys {
			a.touch(k)
			if !a.touch(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAssocPropertyWorkingSetFits(t *testing.T) {
	// Property: any working set of at most `ways` keys per set never
	// misses after the first round.
	f := func(seed uint8) bool {
		const sets, ways = 8, 4
		a := new(assoc)
		a.init(sets, ways, make([]uint64, 2*sets*ways))
		keys := make([]uint64, 0, sets*ways)
		for s := 0; s < sets; s++ {
			for w := 0; w < ways; w++ {
				keys = append(keys, uint64(s)+uint64(w)*sets+uint64(seed%3)*sets*ways)
			}
		}
		for _, k := range keys {
			a.touch(k)
		}
		for _, k := range keys {
			if !a.touch(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostsArePositive(t *testing.T) {
	for _, params := range []Params{SP2Params(), AlphaParams()} {
		s := NewSystem(params)
		var total sim.Time
		for a := uint64(0); a < 1<<16; a += 64 {
			total += s.Access(a)
		}
		if total <= 0 {
			t.Errorf("total cost = %v, want > 0", total)
		}
	}
}

// TestAccessMemoEquivalence drives identical pseudo-random access traces
// through a memoized system and a memo-disabled reference and requires
// bit-identical miss counts and per-access costs. The memo (the
// contiguous-sweep fast path) must be a pure simulation-speed
// optimization, invisible in every counter the tables report.
func TestAccessMemoEquivalence(t *testing.T) {
	traces := map[string]func(i int) uint64{
		// Contiguous 8-byte sweep: the fast path's target.
		"sweep": func(i int) uint64 { return uint64(i) * 8 },
		// Strided accesses crossing lines every iteration.
		"strided": func(i int) uint64 { return uint64(i) * 96 },
		// Repeated same address.
		"pinned": func(i int) uint64 { return 0x4000 },
		// Pseudo-random: an LCG over a 1 MB region.
		"random": func(i int) uint64 {
			x := uint64(i)*6364136223846793005 + 1442695040888963407
			return (x >> 11) % (1 << 20)
		},
		// Two interleaved sweeps (ping-pong defeats the memo but must
		// still agree).
		"pingpong": func(i int) uint64 {
			if i%2 == 0 {
				return uint64(i) * 4
			}
			return 1<<19 + uint64(i)*4
		},
	}
	for name, trace := range traces {
		fast := NewSystem(SP2Params())
		ref := NewSystem(SP2Params())
		ref.noMemo = true
		for i := 0; i < 20000; i++ {
			a := trace(i)
			if cf, cr := fast.Access(a), ref.Access(a); cf != cr {
				t.Fatalf("%s: access %d at %#x: fast cost %v != reference %v", name, i, a, cf, cr)
			}
		}
		if fast.Stats() != ref.Stats() {
			t.Errorf("%s: stats diverged: fast %+v, reference %+v", name, fast.Stats(), ref.Stats())
		}
	}
}

// TestAccessMemoEquivalenceRandomized complements the fixed traces with
// quick.Check-driven address sequences.
func TestAccessMemoEquivalenceRandomized(t *testing.T) {
	f := func(addrs []uint16) bool {
		fast := NewSystem(AlphaParams())
		ref := NewSystem(AlphaParams())
		ref.noMemo = true
		for _, a16 := range addrs {
			// Repeat each address a few times so same-line runs occur.
			for r := 0; r < 3; r++ {
				a := uint64(a16) * 8
				if fast.Access(a) != ref.Access(a) {
					return false
				}
			}
		}
		return fast.Stats() == ref.Stats()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAccessStride8Equivalence drives span accesses and an elementwise
// reference in lockstep and requires bit-identical costs, counters, and
// subsequent behavior (the final LRU state must match too, which the
// trailing probe accesses expose).
func TestAccessStride8Equivalence(t *testing.T) {
	for _, params := range []Params{SP2Params(), AlphaParams()} {
		fast := NewSystem(params)
		ref := NewSystem(params)
		spans := []struct {
			addr uint64
			cnt  int
		}{
			{0, 1}, {0, 7}, {8, 8}, {24, 1000}, {8000, 64}, // page-crossing
			{1 << 20, 4096}, {40, 3}, {48, 3}, {0, 2048}, // re-sweep
		}
		for _, sp := range spans {
			cf := fast.AccessStride8(sp.addr, sp.cnt)
			var cr sim.Time
			for i := 0; i < sp.cnt; i++ {
				cr += ref.Access(sp.addr + uint64(i)*8)
			}
			if cf != cr {
				t.Fatalf("span (%#x,%d): cost %v != elementwise %v", sp.addr, sp.cnt, cf, cr)
			}
			if fast.Stats() != ref.Stats() {
				t.Fatalf("span (%#x,%d): stats %+v != %+v", sp.addr, sp.cnt, fast.Stats(), ref.Stats())
			}
		}
		// Probe addresses that collide with swept sets: any divergence in
		// replacement state shows up as differing hit/miss outcomes.
		for i := 0; i < 4096; i++ {
			a := uint64(i) * 4096
			if fast.Access(a) != ref.Access(a) {
				t.Fatalf("probe %d: replacement state diverged", i)
			}
		}
		if fast.Stats() != ref.Stats() {
			t.Fatalf("post-probe stats diverged: %+v != %+v", fast.Stats(), ref.Stats())
		}
	}
}

// TestAccessStride8EquivalenceRandomized complements the fixed spans with
// quick.Check-driven (addr, cnt) sequences.
func TestAccessStride8EquivalenceRandomized(t *testing.T) {
	f := func(spans []uint16) bool {
		fast := NewSystem(SP2Params())
		ref := NewSystem(SP2Params())
		for _, s16 := range spans {
			addr := uint64(s16&0x0fff) * 8
			cnt := int(s16>>12) + 1
			var cr sim.Time
			cf := fast.AccessStride8(addr, cnt)
			for i := 0; i < cnt; i++ {
				cr += ref.Access(addr + uint64(i)*8)
			}
			if cf != cr || fast.Stats() != ref.Stats() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInstrTouchCycleEquivalence checks the bulk instruction-fetch cycle
// against the per-access rotating InstrTouch sequence: identical costs,
// miss counts, and — via interleaved competing touches that depend on the
// I-TLB's LRU stamps — identical replacement state.
func TestInstrTouchCycleEquivalence(t *testing.T) {
	for _, mod := range []int{1, 2, 3, 5, 8} {
		fast := NewSystem(SP2Params())
		ref := NewSystem(SP2Params())
		rot := 0
		base := uint64(2 << 40)
		for step, cnt := range []int{1, 3, 7, 100, 2, 5000, 1, 12, 999} {
			cf := fast.InstrTouchCycle(base, mod, rot, cnt)
			var cr sim.Time
			for i := 1; i <= cnt; i++ {
				cr += ref.InstrTouch(base + uint64(rot+i)%uint64(mod))
			}
			rot += cnt
			if cf != cr {
				t.Fatalf("mod=%d step=%d: cost %v != elementwise %v", mod, step, cf, cr)
			}
			if fast.Stats() != ref.Stats() {
				t.Fatalf("mod=%d step=%d: stats %+v != %+v", mod, step, fast.Stats(), ref.Stats())
			}
			// Interleave competing code pages (another phase's footprint,
			// same sets): evictions depend on the stamps the bulk path
			// synthesized, so stale stamps would diverge here.
			for k := uint64(0); k < 5; k++ {
				if fast.InstrTouch(1<<41+k) != ref.InstrTouch(1<<41+k) {
					t.Fatalf("mod=%d step=%d: competing touch %d diverged", mod, step, k)
				}
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	with := func(edit func(*Params)) Params {
		p := SP2Params()
		edit(&p)
		return p
	}
	cases := []struct {
		name  string
		p     Params
		field string // "" means valid
	}{
		{"sp2", SP2Params(), ""},
		{"alpha", AlphaParams(), ""},
		{"line size 48", with(func(p *Params) { p.LineSize = 48 }), "LineSize"},
		{"line size 0", with(func(p *Params) { p.LineSize = 0 }), "LineSize"},
		{"page size 12k", with(func(p *Params) { p.PageSize = 12 << 10 }), "PageSize"},
		{"page below line", with(func(p *Params) { p.PageSize = 32 }), "PageSize"},
		{"zero cache ways", with(func(p *Params) { p.CacheWays = 0 }), "CacheWays"},
		{"zero D-TLB ways", with(func(p *Params) { p.DTLBWays = 0 }), "DTLBWays"},
		{"zero I-TLB ways", with(func(p *Params) { p.ITLBWays = 0 }), "ITLBWays"},
		{"6 D-TLB sets", with(func(p *Params) { p.DTLBSets = 6 }), "DTLBSets"},
		{"0 I-TLB sets", with(func(p *Params) { p.ITLBSets = 0 }), "ITLBSets"},
		{"3-way 32 KB cache", with(func(p *Params) { p.CacheWays = 3 }), "CacheSize"},
		{"48 KB cache", with(func(p *Params) { p.CacheSize = 48 << 10 }), "CacheSize"},
		{"3-way 48 KB cache", with(func(p *Params) { p.CacheWays, p.CacheSize = 3, 48<<10 }), ""},
		{"one-line pages", with(func(p *Params) { p.PageSize = 64 }), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.p.Validate()
			if c.field == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				NewSystem(c.p)
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.field) {
				t.Fatalf("Validate() = %v, want an error naming %s", err, c.field)
			}
			defer func() {
				if r := recover(); r == nil || fmt.Sprint(r) != err.Error() {
					t.Errorf("NewSystem panicked with %v, want %q", r, err)
				}
			}()
			NewSystem(c.p)
		})
	}
}
