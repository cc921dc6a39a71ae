package memsim

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"cvm/internal/sim"
)

// replayAgainstReference decodes ops into a sequence of Access,
// AccessRange and AccessStride8 calls, applies it to a fast system and
// to a noMemo reference with geometry p, and reports the first
// difference in returned cost or counters. Afterwards it compares the
// memo state and the LRU order of every set of all three tag arrays, so
// a shortcut that left different replacement state fails even when no
// later access would have exposed it. Each op takes 6 bytes: a kind, a
// 3-byte address inside a 1 MB region at any alignment, and a 2-byte
// length below three pages.
func replayAgainstReference(p Params, ops []byte) error {
	fast, ref := NewSystem(p), NewSystem(p)
	ref.noMemo = true
	for k := 0; len(ops) >= 6; k, ops = k+1, ops[6:] {
		addr := (uint64(ops[1]) | uint64(ops[2])<<8 | uint64(ops[3])<<16) & (1<<20 - 1)
		n := int(uint16(ops[4])|uint16(ops[5])<<8) % (3 * p.PageSize)
		var cf, cr sim.Time
		op := ops[0] % 3
		switch op {
		case 0:
			cf, cr = fast.Access(addr), ref.Access(addr)
		case 1:
			cf, cr = fast.AccessRange(addr, n), ref.AccessRange(addr, n)
		case 2:
			n /= 8
			cf, cr = fast.AccessStride8(addr, n), ref.AccessStride8(addr, n)
		}
		if cf != cr || fast.Stats() != ref.Stats() {
			return fmt.Errorf("op %d %s(%#x, %d): cost %v stats %+v, reference %v %+v", k,
				[...]string{"Access", "AccessRange", "AccessStride8"}[op], addr, n, cf, fast.Stats(), cr, ref.Stats())
		}
	}
	if fast.lastLine != ref.lastLine || fast.lastPage != ref.lastPage {
		return fmt.Errorf("memo (line %#x, page %#x), reference (line %#x, page %#x)",
			fast.lastLine, fast.lastPage, ref.lastLine, ref.lastPage)
	}
	for _, c := range []struct {
		name     string
		fast, rf *assoc
	}{{"D-cache", &fast.dcache, &ref.dcache}, {"D-TLB", &fast.dtlb, &ref.dtlb}, {"I-TLB", &fast.itlb, &ref.itlb}} {
		if f, r := lruOrder(c.fast), lruOrder(c.rf); !slices.Equal(f, r) {
			return fmt.Errorf("%s LRU order %v, reference %v", c.name, f, r)
		}
	}
	return nil
}

// lruOrder lists each set's stored tags from least to most recently
// used. Stamps themselves differ between a system that skips touches
// and one that does not; only their order within a set is state.
func lruOrder(a *assoc) []uint64 {
	var out []uint64
	for base := 0; base < len(a.tags); base += a.ways {
		ways := make([]int, a.ways)
		for i := range ways {
			ways[i] = base + i
		}
		slices.SortStableFunc(ways, func(x, y int) int { return cmp.Compare(a.stamp[x], a.stamp[y]) })
		for _, w := range ways {
			out = append(out, a.tags[w])
		}
	}
	return out
}

var referenceGeometries = []struct {
	name string
	p    Params
}{{"sp2", SP2Params()}, {"alpha", AlphaParams()}}

// TestAccessRangeEquivalenceRandomized drives random interleavings of
// the three data-access entry points through the fast path and the
// noMemo reference on both geometries.
func TestAccessRangeEquivalenceRandomized(t *testing.T) {
	for _, g := range referenceGeometries {
		f := func(ops [40 * 6]byte) bool {
			if err := replayAgainstReference(g.p, ops[:]); err != nil {
				t.Logf("%s: %v", g.name, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", g.name, err)
		}
	}
}

// TestAccessRangeMatchesPerLineAccess pins AccessRange to its definition,
// one Access per line of the range, including the empty and unaligned
// cases and a range that starts on the previous access's line.
func TestAccessRangeMatchesPerLineAccess(t *testing.T) {
	for _, g := range referenceGeometries {
		line := uint64(g.p.LineSize)
		cases := []struct {
			warm, addr uint64
			n          int
		}{
			{0, 0, 0}, {0, 5, 0}, {0, 3, 1}, {0, 8, 3 * g.p.PageSize},
			{100, 96, 64}, {8190, 8000, 400}, {1 << 19, 1<<19 + 17, 2*g.p.PageSize - 1},
		}
		for _, c := range cases {
			fast, ref := NewSystem(g.p), NewSystem(g.p)
			fast.Access(c.warm)
			ref.Access(c.warm)
			cf := fast.AccessRange(c.addr, c.n)
			var cr sim.Time
			for a := c.addr &^ (line - 1); a < c.addr+uint64(c.n); a += line {
				cr += ref.Access(a)
			}
			if cf != cr || fast.Stats() != ref.Stats() || fast.lastLine != ref.lastLine || fast.lastPage != ref.lastPage {
				t.Errorf("%s AccessRange(%#x, %d) after Access(%#x): cost %v stats %+v memo %#x/%#x; per-line %v %+v %#x/%#x",
					g.name, c.addr, c.n, c.warm, cf, fast.Stats(), fast.lastLine, fast.lastPage,
					cr, ref.Stats(), ref.lastLine, ref.lastPage)
			}
		}
	}
}

// FuzzAccessRange searches for an access sequence on which the fast
// path's costs, counters or replacement state leave the noMemo
// reference's, under both geometries.
func FuzzAccessRange(f *testing.F) {
	f.Add([]byte{})
	// A range starting on the memoized line, then one crossing pages.
	f.Add([]byte{0, 0x40, 0, 0, 0, 0, 1, 0x48, 0, 0, 0x80, 0, 1, 0xf0, 0x1f, 0, 0x00, 0x10})
	// A span sweep followed by an unaligned empty range and a re-access.
	f.Add([]byte{2, 0, 0, 1, 0, 0x08, 1, 3, 0, 1, 0, 0, 0, 0x10, 0, 1, 0, 0})
	// Ranges over the same D-TLB set from many pages (8 KB pages, 8 sets).
	f.Add([]byte{1, 0, 0, 0, 0, 0x20, 1, 0, 0, 1, 0, 0x20, 1, 0, 0, 2, 0, 0x20, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, g := range referenceGeometries {
			if err := replayAgainstReference(g.p, ops); err != nil {
				t.Fatalf("%s: %v", g.name, err)
			}
		}
	})
}
