package core

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"
)

func TestMakeDiffEmpty(t *testing.T) {
	twin := make([]byte, 128)
	cur := make([]byte, 128)
	if runs := MakeDiff(Runs{}, twin, cur); len(runs.Spans) != 0 || len(runs.Data) != 0 {
		t.Errorf("identical pages produced %d runs, want none", len(runs.Spans))
	}
}

func TestMakeDiffSingleRun(t *testing.T) {
	twin := make([]byte, 128)
	cur := make([]byte, 128)
	copy(cur[10:], []byte{1, 2, 3})
	runs := MakeDiff(Runs{}, twin, cur)
	if len(runs.Spans) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs.Spans))
	}
	if runs.Spans[0] != (Span{Off: 10, Len: 3}) || !bytes.Equal(runs.Data, []byte{1, 2, 3}) {
		t.Errorf("run = %+v %v, want off=10 data=[1 2 3]", runs.Spans[0], runs.Data)
	}
}

func TestMakeDiffMultipleRuns(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0] = 9
	cur[31] = 9
	cur[63] = 9
	runs := MakeDiff(Runs{}, twin, cur)
	if len(runs.Spans) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs.Spans))
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	// Property: applying MakeDiff(twin, cur) to a copy of twin yields cur.
	f := func(seed []byte) bool {
		const n = 256
		twin := make([]byte, n)
		cur := make([]byte, n)
		for i, b := range seed {
			twin[i%n] = b
		}
		copy(cur, twin)
		// Mutate cur at positions derived from the seed.
		for i, b := range seed {
			if b%3 == 0 {
				cur[(i*7)%n] ^= b | 1
			}
		}
		d := &Diff{Runs: MakeDiff(Runs{}, twin, cur)}
		got := make([]byte, n)
		copy(got, twin)
		d.Apply(got, nil)
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffApplyToTwin(t *testing.T) {
	twin := make([]byte, 32)
	dst := make([]byte, 32)
	d := &Diff{Runs: Runs{Spans: []Span{{Off: 4, Len: 2}}, Data: []byte{7, 8}}}
	d.Apply(dst, twin)
	if dst[4] != 7 || twin[4] != 7 || dst[5] != 8 || twin[5] != 8 {
		t.Error("Apply did not update both destination and twin")
	}
}

// makeDiffRef is the byte-at-a-time reference implementation MakeDiff's
// word-at-a-time kernel must match exactly.
func makeDiffRef(twin, cur []byte) Runs {
	var runs Runs
	n := len(cur)
	i := 0
	for i < n {
		if twin[i] == cur[i] {
			i++
			continue
		}
		start := i
		for i < n && twin[i] != cur[i] {
			i++
		}
		runs.Spans = append(runs.Spans, Span{Off: int32(start), Len: int32(i - start)})
		runs.Data = append(runs.Data, cur[start:i]...)
	}
	return runs
}

func runsEqual(a, b Runs) bool {
	return slices.Equal(a.Spans, b.Spans) && bytes.Equal(a.Data, b.Data)
}

// spanDiff builds a diff of zero-filled runs over the given [start, end)
// byte ranges, which must be ascending and disjoint.
func spanDiff(ranges ...[2]int32) *Diff {
	rs := make([]run, len(ranges))
	for i, r := range ranges {
		rs[i] = run{r[0], make([]byte, r[1]-r[0])}
	}
	return &Diff{Runs: runsOf(rs...)}
}

// TestMakeDiffMatchesReference is the golden test for the word-at-a-time
// kernel: identical run boundaries and contents to the byte-wise scan on
// random pages, plus handcrafted word-boundary edge cases.
func TestMakeDiffMatchesReference(t *testing.T) {
	// Edge cases around 8-byte word boundaries and non-multiple-of-8
	// lengths.
	cases := [][2][]byte{}
	addCase := func(n int, mutate func(cur []byte)) {
		twin := make([]byte, n)
		cur := make([]byte, n)
		mutate(cur)
		cases = append(cases, [2][]byte{twin, cur})
	}
	addCase(64, func(cur []byte) {})                         // clean page
	addCase(64, func(cur []byte) { cur[0] = 1 })             // run at start
	addCase(64, func(cur []byte) { cur[63] = 1 })            // run at end
	addCase(64, func(cur []byte) { cur[7] = 1; cur[8] = 1 }) // run across a word boundary
	addCase(64, func(cur []byte) {
		for i := range cur {
			cur[i] = byte(i) | 1 // every byte differs
		}
	})
	addCase(64, func(cur []byte) {
		for i := 0; i < 64; i += 2 {
			cur[i] = 1 // alternating differ/match defeats whole-word runs
		}
	})
	addCase(13, func(cur []byte) { cur[12] = 1 }) // tail shorter than a word
	addCase(7, func(cur []byte) { cur[3] = 1 })   // page shorter than a word
	addCase(1, func(cur []byte) { cur[0] = 1 })
	addCase(0, func(cur []byte) {})
	// One scratch across every case, so a stale buffer would show.
	var scratch Runs
	for i, c := range cases {
		twin, cur := c[0], c[1]
		scratch = MakeDiff(scratch, twin, cur)
		if want := makeDiffRef(twin, cur); !runsEqual(scratch, want) {
			t.Errorf("case %d: MakeDiff = %+v, want %+v", i, scratch, want)
		}
	}

	// Property check over pseudo-random sparse and dense patterns.
	f := func(seed []byte, dense bool) bool {
		const n = 259 // deliberately not a multiple of 8
		twin := make([]byte, n)
		cur := make([]byte, n)
		for i, b := range seed {
			twin[i%n] = b
		}
		copy(cur, twin)
		step := 31
		if dense {
			step = 2
		}
		for i, b := range seed {
			cur[(i*step)%n] ^= b
		}
		scratch = MakeDiff(scratch, twin, cur)
		return runsEqual(scratch, makeDiffRef(twin, cur))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMakeDiffAllocs pins the allocation cost of a diff: scanning into
// a warm scratch allocates nothing, and the clone a retained diff keeps
// is two allocations for a dirty page and none for a clean one.
func TestMakeDiffAllocs(t *testing.T) {
	for _, pattern := range []string{"sparse", "dense", "alternating", "clean"} {
		twin, cur := benchPages(pattern)
		scratch := MakeDiff(Runs{}, twin, cur)
		scan := testing.AllocsPerRun(50, func() { scratch = MakeDiff(scratch, twin, cur) })
		kept := testing.AllocsPerRun(50, func() {
			scratch = MakeDiff(scratch, twin, cur)
			_ = scratch.Clone()
		})
		want := 2.0
		if pattern == "clean" {
			want = 0
		}
		if scan != 0 || kept != want {
			t.Errorf("%s: %v allocs/scan into scratch, %v with the clone; want 0 and %v",
				pattern, scan, kept, want)
		}
	}
}

func TestDiffOverlaps(t *testing.T) {
	a := spanDiff([2]int32{0, 8})
	b := spanDiff([2]int32{8, 16})
	c := spanDiff([2]int32{4, 12})
	if a.Overlaps(b) {
		t.Error("adjacent diffs reported overlapping")
	}
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Error("overlapping diffs reported disjoint")
	}
}

// TestDiffOverlapsAdjacent pins the aEnd == b.Off boundary: runs that
// touch but share no byte must not report an overlap, in either order.
func TestDiffOverlapsAdjacent(t *testing.T) {
	a := spanDiff([2]int32{0, 16})  // [0,16)
	b := spanDiff([2]int32{16, 24}) // [16,24)
	if a.Overlaps(b) || b.Overlaps(a) {
		t.Error("adjacent-but-not-overlapping runs reported overlapping")
	}
	c := spanDiff([2]int32{15, 17}) // [15,17) overlaps both
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Error("one-byte overlap missed")
	}
}

// TestDiffOverlapsMergeWalk exercises the two-pointer merge with
// interleaved multi-run diffs, including a late overlap after several
// disjoint leading runs on both sides.
func TestDiffOverlapsMergeWalk(t *testing.T) {
	mk := spanDiff
	a := mk([2]int32{0, 4}, [2]int32{10, 14}, [2]int32{20, 24}, [2]int32{40, 48})
	b := mk([2]int32{4, 8}, [2]int32{14, 18}, [2]int32{24, 28})
	if a.Overlaps(b) || b.Overlaps(a) {
		t.Error("interleaved disjoint diffs reported overlapping")
	}
	c := mk([2]int32{4, 8}, [2]int32{14, 18}, [2]int32{47, 50}) // last run hits a's last
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Error("late overlap missed by merge walk")
	}
	empty := &Diff{}
	if a.Overlaps(empty) || empty.Overlaps(a) {
		t.Error("empty diff reported overlapping")
	}
}

// TestDiffOverlapsMatchesQuadratic cross-checks the merge walk against the
// all-pairs reference on random ascending run lists.
func TestDiffOverlapsMatchesQuadratic(t *testing.T) {
	quadratic := func(d, other *Diff) bool {
		for _, a := range d.Runs.Spans {
			for _, b := range other.Runs.Spans {
				if a.Off < b.Off+b.Len && b.Off < a.Off+a.Len {
					return true
				}
			}
		}
		return false
	}
	f := func(aSeed, bSeed []byte) bool {
		mk := func(seed []byte) *Diff {
			var ranges [][2]int32
			off := int32(0)
			for _, b := range seed {
				off += int32(b%37) + 1
				n := int32(b%11) + 1
				ranges = append(ranges, [2]int32{off, off + n})
				off += n
			}
			return spanDiff(ranges...)
		}
		a, b := mk(aSeed), mk(bSeed)
		return a.Overlaps(b) == quadratic(a, b) && b.Overlaps(a) == quadratic(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffBytes(t *testing.T) {
	d := spanDiff([2]int32{0, 100})
	d.VT = NewVClock(4)
	want := 16 + 16 + 8 + 100
	if got := d.Bytes(); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
}

func TestConcurrentDiffMergeCommutes(t *testing.T) {
	// Property: two diffs over disjoint regions applied in either order
	// produce the same page (multi-writer merge correctness).
	f := func(aData, bData []byte) bool {
		const n = 128
		base := make([]byte, n)
		a := &Diff{Runs: MakeDiff(Runs{}, base, pageWith(base, 0, aData, n/2))}
		b := &Diff{Runs: MakeDiff(Runs{}, base, pageWith(base, n/2, bData, n/2))}
		p1 := make([]byte, n)
		a.Apply(p1, nil)
		b.Apply(p1, nil)
		p2 := make([]byte, n)
		b.Apply(p2, nil)
		a.Apply(p2, nil)
		return bytes.Equal(p1, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pageWith returns a copy of base with data written at off (clamped to
// limit bytes).
func pageWith(base []byte, off int, data []byte, limit int) []byte {
	p := make([]byte, len(base))
	copy(p, base)
	if len(data) > limit {
		data = data[:limit]
	}
	copy(p[off:], data)
	return p
}
