package core

import (
	"encoding/binary"
	"math/bits"
)

// Diff summarizes the modifications made to one page during one or more
// intervals, as a list of byte runs that differ between the page's twin
// and its current contents. Diffs are how CVM's multiple-writer protocol
// merges concurrent modifications to the same page.
type Diff struct {
	Page PageID
	Node int    // creator node
	Idx  int32  // newest interval the diff belongs to
	VT   VClock // creator's vector time when the interval closed
	Runs Runs

	// encSize caches the compressed wire size (see WireBytes); 0 means
	// not yet computed. Only the creator node touches it.
	encSize int32
}

// Span is one contiguous modified byte range within a page: Len bytes
// starting at page offset Off.
type Span struct {
	Off, Len int32
}

// Runs is a diff's modified bytes in flat form. Spans lists the
// modified ranges in ascending, non-overlapping offset order; Data holds
// their bytes back to back, span k's bytes right after span k−1's.
// Neither slice holds pointers, so a retained diff is two scan-free
// allocations for the garbage collector, whatever its run count.
type Runs struct {
	Spans []Span
	Data  []byte
}

// Clone copies r into freshly allocated buffers: two allocations, or
// none when r is empty. MakeDiff's result aliases its scratch buffers,
// so a caller that keeps runs past the next scan keeps a clone.
func (r Runs) Clone() Runs {
	if len(r.Spans) == 0 {
		return Runs{}
	}
	return Runs{
		Spans: append([]Span(nil), r.Spans...),
		Data:  append([]byte(nil), r.Data...),
	}
}

// SWAR byte-lane masks: the low seven bits and the high bit of every
// byte of a word.
const (
	lo7 = 0x7f7f7f7f7f7f7f7f
	hi1 = 0x8080808080808080
)

// MakeDiff compares twin (the page contents at first write) against cur
// and returns the modified runs. The slices must be the same length.
// The result is built in scratch's buffers, reusing their capacity (the
// previous contents are discarded), and aliases them: Clone it to keep
// it past the next MakeDiff into the same scratch.
//
// The scan is one pass, one 8-byte word at a time. x = twin^cur is
// nonzero exactly in the bytes that differ, and
// ne = ((x&lo7)+lo7 | x) & hi1 sets the high bit of each such byte (the
// add carries into bit 7 whenever a low bit is set and never crosses a
// byte). p = ne<<8 | carry is each byte's predecessor flag, with the
// previous word's last flag carried in, so run starts are ne&^p, run
// ends are ^ne&hi1&p, and their union ne^p is popped in offset order
// with TrailingZeros64, alternating start and end. Words that cannot
// hold a boundary (clean outside a run, differing in every byte inside
// one) cost one test each. Run boundaries are bit-identical to a
// byte-at-a-time scan (see TestMakeDiffMatchesReference).
func MakeDiff(scratch Runs, twin, cur []byte) Runs {
	spans, data := scratch.Spans[:0], scratch.Data[:0]
	n := len(cur)
	twin = twin[:n]
	start := -1      // offset of the open run, or -1 outside a run
	var carry uint64 // hi bit of byte 0 set when the previous byte differs
	for i := 0; ; i += 8 {
		if carry == 0 {
			for i+8 <= n && binary.LittleEndian.Uint64(twin[i:]) == binary.LittleEndian.Uint64(cur[i:]) {
				i += 8
			}
		} else {
			for i+8 <= n && !hasZeroByte(binary.LittleEndian.Uint64(twin[i:])^binary.LittleEndian.Uint64(cur[i:])) {
				i += 8
			}
		}
		if i >= n {
			break
		}
		var x uint64
		if i+8 <= n {
			x = binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(cur[i:])
		} else {
			// Short tail: zero padding matches in both, so a run open at
			// the last byte ends at n.
			x = loadTail(twin[i:]) ^ loadTail(cur[i:])
		}
		ne := ((x & lo7) + lo7 | x) & hi1
		for ev := ne ^ (ne<<8 | carry); ev != 0; ev &= ev - 1 {
			off := i + bits.TrailingZeros64(ev)>>3
			if start < 0 {
				start = off
				continue
			}
			spans = append(spans, Span{Off: int32(start), Len: int32(off - start)})
			data = append(data, cur[start:off]...)
			start = -1
		}
		carry = ne >> 56
	}
	if start >= 0 {
		spans = append(spans, Span{Off: int32(start), Len: int32(n - start)})
		data = append(data, cur[start:]...)
	}
	return Runs{Spans: spans, Data: data}
}

// hasZeroByte reports whether any byte of x is zero (borrow propagation
// sets the high bit of the lowest zero byte).
func hasZeroByte(x uint64) bool {
	return (x-0x0101010101010101)&^x&hi1 != 0
}

// loadTail reads a word from the fewer than 8 bytes of b, zero-padded.
func loadTail(b []byte) uint64 {
	var w [8]byte
	copy(w[:], b)
	return binary.LittleEndian.Uint64(w[:])
}

// Apply writes the diff's runs into page contents dst, and into twin as
// well when twin is non-nil. Applying to the twin keeps remotely-created
// modifications from being re-attributed to the local node's next diff
// when the local node is itself a concurrent writer of the page.
func (d *Diff) Apply(dst, twin []byte) {
	data := d.Runs.Data
	for _, s := range d.Runs.Spans {
		copy(dst[s.Off:], data[:s.Len])
		if twin != nil {
			copy(twin[s.Off:], data[:s.Len])
		}
		data = data[s.Len:]
	}
}

// Bytes reports the payload size of the diff on the simulated wire:
// 8 bytes of header per run plus the run data, plus the vector time.
func (d *Diff) Bytes() int {
	return d.VT.wireBytes() + 16 + 8*len(d.Runs.Spans) + len(d.Runs.Data)
}

// Overlaps reports whether two diffs modify any common byte. Overlapping
// concurrent diffs indicate a data race in the application. MakeDiff
// emits runs in ascending, non-overlapping offset order, so the two run
// lists are walked with a linear two-pointer merge instead of the
// quadratic all-pairs scan.
func (d *Diff) Overlaps(other *Diff) bool {
	da, db := d.Runs.Spans, other.Runs.Spans
	i, j := 0, 0
	for i < len(da) && j < len(db) {
		a, b := da[i], db[j]
		aEnd, bEnd := a.Off+a.Len, b.Off+b.Len
		if a.Off < bEnd && b.Off < aEnd {
			return true
		}
		// Disjoint: drop whichever run ends first; it cannot overlap any
		// later (higher-offset) run of the other diff either.
		if aEnd <= bEnd {
			i++
		} else {
			j++
		}
	}
	return false
}
