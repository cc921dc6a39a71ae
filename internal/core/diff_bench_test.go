package core

import "testing"

// The diff kernels are the simulator's hottest inner loops: every closed
// interval runs MakeDiff over a full page, and every remote fault runs
// Apply per incoming diff. These benchmarks are the regression baseline
// for the word-at-a-time scan (see BENCH_harness.json).

const benchPageSize = 8 << 10

func benchPages(pattern string) (twin, cur []byte) {
	twin = make([]byte, benchPageSize)
	cur = make([]byte, benchPageSize)
	switch pattern {
	case "clean":
	case "sparse": // a few short runs, the common single-writer case
		for i := 0; i < benchPageSize; i += 512 {
			cur[i] = byte(i>>9) + 1
		}
	case "dense": // nearly every byte modified (bulk initialization)
		for i := range cur {
			cur[i] = byte(i) | 1
		}
	case "alternating": // worst case for word batching
		for i := 0; i < benchPageSize; i += 2 {
			cur[i] = 1
		}
	}
	return twin, cur
}

func benchmarkMakeDiff(b *testing.B, pattern string) {
	twin, cur := benchPages(pattern)
	var scratch Runs
	b.SetBytes(benchPageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = MakeDiff(scratch, twin, cur)
	}
}

func BenchmarkMakeDiffClean(b *testing.B)       { benchmarkMakeDiff(b, "clean") }
func BenchmarkMakeDiffSparse(b *testing.B)      { benchmarkMakeDiff(b, "sparse") }
func BenchmarkMakeDiffDense(b *testing.B)       { benchmarkMakeDiff(b, "dense") }
func BenchmarkMakeDiffAlternating(b *testing.B) { benchmarkMakeDiff(b, "alternating") }

func BenchmarkDiffApply(b *testing.B) {
	twin, cur := benchPages("sparse")
	d := &Diff{Runs: MakeDiff(Runs{}, twin, cur)}
	dst := make([]byte, benchPageSize)
	tw := make([]byte, benchPageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Apply(dst, tw)
	}
}

func BenchmarkDiffOverlaps(b *testing.B) {
	// Two interleaved disjoint diffs with many runs: the case the merge
	// walk turns from O(runs²) into O(runs).
	var ar, cr [][2]int32
	for off := int32(0); off < benchPageSize; off += 32 {
		ar = append(ar, [2]int32{off, off + 8})
		cr = append(cr, [2]int32{off + 16, off + 24})
	}
	a, c := spanDiff(ar...), spanDiff(cr...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a.Overlaps(c) {
			b.Fatal("disjoint diffs reported overlapping")
		}
	}
}

// BenchmarkMakeDiffRefDense measures the byte-at-a-time reference scan on
// the dense pattern, quantifying the word-at-a-time kernel's win.
func BenchmarkMakeDiffRefDense(b *testing.B) {
	twin, cur := benchPages("dense")
	b.SetBytes(benchPageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		makeDiffRef(twin, cur)
	}
}

// BenchmarkMakeDiffRefSparse is the byte-wise reference on sparse pages.
func BenchmarkMakeDiffRefSparse(b *testing.B) {
	twin, cur := benchPages("sparse")
	b.SetBytes(benchPageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		makeDiffRef(twin, cur)
	}
}
