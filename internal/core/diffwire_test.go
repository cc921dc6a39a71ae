package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// run is one (offset, bytes) pair for building test diffs.
type run struct {
	off  int32
	data []byte
}

// runsOf flattens runs, given in ascending offset order.
func runsOf(rs ...run) Runs {
	var out Runs
	for _, r := range rs {
		out.Spans = append(out.Spans, Span{Off: r.off, Len: int32(len(r.data))})
		out.Data = append(out.Data, r.data...)
	}
	return out
}

// roundTripRuns encodes runs, decodes them back, and fails on any
// mismatch or trailing bytes.
func roundTripRuns(t *testing.T, runs Runs) []byte {
	t.Helper()
	enc := EncodeRuns(nil, runs)
	if got := EncodedRunsSize(runs); got != len(enc) {
		t.Fatalf("EncodedRunsSize = %d, len(EncodeRuns) = %d", got, len(enc))
	}
	dec, rest, err := DecodeRuns(enc)
	if err != nil {
		t.Fatalf("DecodeRuns: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeRuns left %d trailing bytes", len(rest))
	}
	if !runsEqual(dec, runs) {
		t.Fatalf("decoded %+v, want %+v", dec, runs)
	}
	return enc
}

func TestEncodeRunsRoundTrip(t *testing.T) {
	cases := map[string]Runs{
		"empty":   {},
		"one":     runsOf(run{0, []byte{1}}),
		"tail":    runsOf(run{8191, []byte{9}}),
		"full":    runsOf(run{0, bytes.Repeat([]byte{0xAB}, 8192)}),
		"back2":   runsOf(run{0, []byte{1, 2}}, run{2, []byte{3}}),
		"repeats": runsOf(run{100, append(bytes.Repeat([]byte{7}, 100), 1, 2, 3)}),
		"words": runsOf(
			run{64, []byte{1, 0, 0, 0, 0, 0, 0, 0}},
			run{512, []byte{2, 0, 0, 0, 0, 0, 0, 0}},
		),
	}
	for name, runs := range cases {
		t.Run(name, func(t *testing.T) { roundTripRuns(t, runs) })
	}
}

// TestEncodeRunsMatchesMakeDiff drives the codec with real MakeDiff
// output over a deterministic pseudo-random write workload: whatever the
// protocol can produce, the wire must round-trip bit-exactly.
func TestEncodeRunsMatchesMakeDiff(t *testing.T) {
	const pageSize = 4096
	rng := uint64(1)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for trial := 0; trial < 200; trial++ {
		twin := make([]byte, pageSize)
		for i := range twin {
			twin[i] = byte(next())
		}
		cur := append([]byte(nil), twin...)
		writes := int(next() % 40)
		for w := 0; w < writes; w++ {
			off := int(next() % pageSize)
			ln := 1 + int(next()%64)
			if off+ln > pageSize {
				ln = pageSize - off
			}
			switch next() % 3 {
			case 0: // word write of a small value
				for i := 0; i < ln; i++ {
					cur[off+i] = 0
				}
				cur[off] = byte(next())
			case 1: // repeated fill
				b := byte(next())
				for i := 0; i < ln; i++ {
					cur[off+i] = b
				}
			default: // high-entropy splat
				for i := 0; i < ln; i++ {
					cur[off+i] = byte(next())
				}
			}
		}
		runs := MakeDiff(Runs{}, twin, cur)
		enc := roundTripRuns(t, runs)
		// Apply the decoded runs to a copy of the twin and compare pages:
		// end-to-end, wire form included, the receiver reconstructs cur.
		dec, _, _ := DecodeRuns(enc)
		got := append([]byte(nil), twin...)
		(&Diff{Runs: dec}).Apply(got, nil)
		if !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: page reconstruction diverged", trial)
		}
	}
}

func TestDecodeRunsRejectsCorruption(t *testing.T) {
	runs := runsOf(run{0, bytes.Repeat([]byte{5}, 100)}, run{200, []byte{1, 2, 3}})
	enc := EncodeRuns(nil, runs)
	if _, _, err := DecodeRuns(enc[:len(enc)-1]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, _, err := DecodeRuns(enc[:1]); err == nil {
		t.Error("header-only payload decoded without error")
	}
	// A run count far beyond anything legal must be rejected up front.
	huge := binary.AppendUvarint(nil, 1<<30)
	if _, _, err := DecodeRuns(huge); err == nil {
		t.Error("absurd run count decoded without error")
	}
	// The count is capped by what the input can hold: a 3-byte payload
	// declaring 1<<20 runs must fail without allocating for them.
	bomb := binary.AppendUvarint(nil, 1<<20)
	if _, _, err := DecodeRuns(bomb); err == nil {
		t.Error("1<<20-run header on an empty body decoded without error")
	}
	if used := allocBytes(100, func() { DecodeRuns(bomb) }); used > 1<<10 {
		t.Errorf("rejecting a 1<<20-run header allocated %d bytes", used)
	}
	// Offsets past int32: a gap that lands the run's end beyond it, and
	// a gap too large for int32 on its own.
	over := append(binary.AppendUvarint([]byte{1}, math.MaxInt32), 1<<1, 1<<1, 7)
	if _, _, err := DecodeRuns(over); err == nil {
		t.Error("run ending past int32 offsets decoded without error")
	}
	over = append(binary.AppendUvarint([]byte{1}, 1<<40), 1<<1, 1<<1, 7)
	if _, _, err := DecodeRuns(over); err == nil {
		t.Error("gap past int32 offsets decoded without error")
	}
}

func TestVClockRoundTrip(t *testing.T) {
	cases := []VClock{
		nil,
		{},
		{0, 0, 0, 0},
		{1, 2, 3},
		{0, 0, 7, 0, 0, 0, 9, 1 << 30, 0},
		make(VClock, 1024),
	}
	big := make(VClock, 1024)
	big[3] = 44
	big[1000] = 7
	cases = append(cases, big)
	for i, vt := range cases {
		enc := AppendVClock(nil, vt)
		if got := VClockEncodedSize(vt); got != len(enc) {
			t.Fatalf("case %d: VClockEncodedSize = %d, len = %d", i, got, len(enc))
		}
		dec, rest, err := DecodeVClock(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rest) != 0 || len(dec) != len(vt) {
			t.Fatalf("case %d: rest=%d len=%d want %d", i, len(rest), len(dec), len(vt))
		}
		for j := range vt {
			if dec[j] != vt[j] {
				t.Fatalf("case %d component %d: got %d want %d", i, j, dec[j], vt[j])
			}
		}
	}
	// A sparse 1024-node clock must cost bytes, not kilobytes.
	if got := VClockEncodedSize(big); got > 32 {
		t.Errorf("sparse 1024-component clock encodes to %d bytes", got)
	}
}

// TestWirePatternRatios pins the compression guarantees the metrics gate
// enforces: ≤ 60% of raw on the sparse pattern, never meaningfully
// inflating on the incompressible dense pattern.
func TestWirePatternRatios(t *testing.T) {
	const pageSize = 8 << 10
	caps := map[string]float64{"sparse": 0.60, "dense": 1.01, "strided": 0.90}
	for _, pattern := range WirePatterns() {
		twin, cur := WirePatternPages(pattern, pageSize)
		runs := MakeDiff(Runs{}, twin, cur)
		if len(runs.Spans) == 0 {
			t.Fatalf("%s: no runs", pattern)
		}
		raw := 8*len(runs.Spans) + len(runs.Data)
		enc := roundTripRuns(t, runs)
		ratio := float64(len(enc)) / float64(raw)
		t.Logf("%s: raw %d encoded %d ratio %.3f", pattern, raw, len(enc), ratio)
		if cap, ok := caps[pattern]; !ok || ratio > cap {
			t.Errorf("%s: ratio %.3f exceeds cap %.2f (raw %d, encoded %d)",
				pattern, ratio, cap, raw, len(enc))
		}
	}
}

// TestWireBytesAccounting: WireBytes(false) is the legacy accounting,
// WireBytes(true) the cached compressed size.
func TestWireBytesAccounting(t *testing.T) {
	twin, cur := WirePatternPages("sparse", 8<<10)
	vt := VClock{3, 0, 0, 5}
	d := &Diff{Page: 1, Node: 0, Idx: 3, VT: vt, Runs: MakeDiff(Runs{}, twin, cur)}
	if got, want := d.WireBytes(false), d.Bytes(); got != want {
		t.Errorf("WireBytes(false) = %d, want Bytes() = %d", got, want)
	}
	want := 16 + VClockEncodedSize(vt) + EncodedRunsSize(d.Runs)
	if got := d.WireBytes(true); got != want {
		t.Errorf("WireBytes(true) = %d, want %d", got, want)
	}
	if got := d.WireBytes(true); got != want {
		t.Errorf("cached WireBytes(true) = %d, want %d", got, want)
	}
	if d.WireBytes(true) >= d.WireBytes(false) {
		t.Errorf("compressed %d not smaller than raw %d on the sparse pattern",
			d.WireBytes(true), d.WireBytes(false))
	}
}

// TestCompressDiffsEquivalence: compression changes message sizes (and
// therefore virtual timing) but must not change a single computed value
// or protocol decision. Run the same lock-counter workload both ways and
// compare final memory contents and protocol counts that are
// timing-independent.
func TestCompressDiffsEquivalence(t *testing.T) {
	run := func(compress bool) (int64, RunStats) {
		cfg := DefaultConfig(4, 2)
		cfg.CompressDiffs = compress
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := s.Alloc("counter", cfg.PageSize)
		var final int64
		runApp(t, s, func(w *Thread) {
			for r := 0; r < 5; r++ {
				w.Lock(1)
				w.WriteI64(addr, w.ReadI64(addr)+1)
				w.Unlock(1)
			}
			w.Barrier(0)
			if w.GlobalID() == 0 {
				w.Lock(1)
				final = w.ReadI64(addr)
				w.Unlock(1)
			}
		})
		return final, s.Stats()
	}
	vOff, stOff := run(false)
	vOn, stOn := run(true)
	if vOff != vOn || vOff != 40 {
		t.Fatalf("counter: off=%d on=%d want 40", vOff, vOn)
	}
	if stOn.Net.Bytes[ClassDiff] >= stOff.Net.Bytes[ClassDiff] {
		t.Errorf("compressed diff bytes %d not below raw %d",
			stOn.Net.Bytes[ClassDiff], stOff.Net.Bytes[ClassDiff])
	}
	if stOn.Net.Msgs != stOff.Net.Msgs {
		t.Errorf("message counts diverged: %v vs %v", stOn.Net.Msgs, stOff.Net.Msgs)
	}
}

// Benchmarks: the encoder/decoder on the gated wire patterns. These feed
// the BENCH_harness.json micro section (DiffEncode/DiffDecode).
func benchmarkDiffEncode(b *testing.B, pattern string) {
	twin, cur := WirePatternPages(pattern, benchPageSize)
	runs := MakeDiff(Runs{}, twin, cur)
	raw := 8*len(runs.Spans) + len(runs.Data)
	var dst []byte
	b.SetBytes(int64(benchPageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EncodeRuns(dst[:0], runs)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(dst))/float64(raw), "ratio")
}

func BenchmarkDiffEncodeSparse(b *testing.B)  { benchmarkDiffEncode(b, "sparse") }
func BenchmarkDiffEncodeDense(b *testing.B)   { benchmarkDiffEncode(b, "dense") }
func BenchmarkDiffEncodeStrided(b *testing.B) { benchmarkDiffEncode(b, "strided") }

func benchmarkDiffDecode(b *testing.B, pattern string) {
	twin, cur := WirePatternPages(pattern, benchPageSize)
	enc := EncodeRuns(nil, MakeDiff(Runs{}, twin, cur))
	b.SetBytes(int64(benchPageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRuns(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffDecodeSparse(b *testing.B) { benchmarkDiffDecode(b, "sparse") }
func BenchmarkDiffDecodeDense(b *testing.B)  { benchmarkDiffDecode(b, "dense") }

// Ensure the fixtures cover the documented shapes (a guard against
// silently editing a pattern into triviality).
func TestWirePatternShapes(t *testing.T) {
	for _, pattern := range WirePatterns() {
		twin, cur := WirePatternPages(pattern, 8<<10)
		if len(twin) != 8<<10 || len(cur) != 8<<10 {
			t.Fatalf("%s: wrong page sizes", pattern)
		}
		runs := MakeDiff(Runs{}, twin, cur)
		total := len(runs.Data)
		switch pattern {
		case "sparse":
			if total < 512 || total > 2048 {
				t.Errorf("sparse modifies %d bytes, want ~1/8 of the page", total)
			}
		case "dense":
			if total < 8000 {
				t.Errorf("dense modifies only %d bytes", total)
			}
		case "strided":
			if len(runs.Spans) < 100 {
				t.Errorf("strided has %d runs, want a regular stride", len(runs.Spans))
			}
		}
	}
}
