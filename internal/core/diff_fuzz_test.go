package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// allocBytes reports the heap bytes f allocates, averaged over runs
// calls.
func allocBytes(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// f64Page lays out words float64 grid values starting at base, plus an
// odd tail byte so the page length is not a multiple of 8.
func f64Page(words int, base float64) []byte {
	p := make([]byte, 8*words+3)
	for w := 0; w < words; w++ {
		binary.LittleEndian.PutUint64(p[8*w:], math.Float64bits(base+float64(w)*0.25))
	}
	return p
}

// FuzzMakeDiff checks the word-at-a-time scan against the byte-wise
// reference and drives its output end to end: scratch reuse, Clone, the
// wire codec, and Apply reconstructing cur from twin.
func FuzzMakeDiff(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0}, []byte{1})
	f.Add(make([]byte, 7), []byte{0, 0, 0, 1, 0, 0, 0})
	f.Add(make([]byte, 13), []byte{0, 0, 0, 0, 0, 0, 0, 9, 9, 0, 0, 0, 1})
	alt := make([]byte, 67)
	for i := 0; i < len(alt); i += 2 {
		alt[i] = 1
	}
	f.Add(make([]byte, 67), alt)
	// float64 updates: the typical relaxation step leaves one byte of
	// each updated word unchanged, splitting it into short runs.
	twin := f64Page(64, 1.0)
	cur := append([]byte(nil), twin...)
	for w := 0; w < 64; w += 3 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(cur[8*w:]))
		binary.LittleEndian.PutUint64(cur[8*w:], math.Float64bits(v+0.125))
	}
	cur[len(cur)-1] = 0xff
	f.Add(twin, cur)
	f.Add(f64Page(33, 2.0), f64Page(33, 3.5))

	var scratch Runs
	f.Fuzz(func(t *testing.T, twin, cur []byte) {
		n := min(len(twin), len(cur))
		twin, cur = twin[:n], cur[:n]
		// Leave the reverse diff in the scratch first: reuse must not
		// leak a previous scan into the next.
		scratch = MakeDiff(scratch, cur, twin)
		scratch = MakeDiff(scratch, twin, cur)
		want := makeDiffRef(twin, cur)
		if !runsEqual(scratch, want) {
			t.Fatalf("MakeDiff = %+v, want %+v", scratch, want)
		}
		kept := scratch.Clone()
		if !runsEqual(kept, want) {
			t.Fatalf("Clone = %+v, want %+v", kept, want)
		}
		enc := EncodeRuns(nil, kept)
		if size := EncodedRunsSize(kept); size != len(enc) {
			t.Fatalf("EncodedRunsSize = %d, len(EncodeRuns) = %d", size, len(enc))
		}
		dec, rest, err := DecodeRuns(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("DecodeRuns: err %v, %d trailing bytes", err, len(rest))
		}
		if !runsEqual(dec, want) {
			t.Fatalf("decoded %+v, want %+v", dec, want)
		}
		page := append([]byte(nil), twin...)
		(&Diff{Runs: dec}).Apply(page, nil)
		if !bytes.Equal(page, cur) {
			t.Fatal("applying the decoded diff to the twin does not yield cur")
		}
	})
}

// FuzzDecodeRuns feeds arbitrary bytes to the decoder: it must never
// panic, must allocate nothing beyond the spans its input pays for and
// the data it returns, and whatever it accepts must be well-formed runs
// that re-encode to an equal decoding.
func FuzzDecodeRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(EncodeRuns(nil, runsOf(run{0, bytes.Repeat([]byte{5}, 100)}, run{200, []byte{1, 2, 3}})))
	twin, cur := WirePatternPages("strided", 512)
	f.Add(EncodeRuns(nil, MakeDiff(Runs{}, twin, cur)))
	f.Add(binary.AppendUvarint(nil, 1<<20))                                // count the input cannot hold
	f.Add(append(binary.AppendUvarint([]byte{1}, math.MaxInt32), 2, 2, 7)) // offset past int32
	f.Add([]byte{1, 0, 0xfe, 0xff, 0xff, 0x0f, 0x03, 1})                   // 16 MB run, one short repeat token

	f.Fuzz(func(t *testing.T, src []byte) {
		var runs Runs
		var err error
		used := allocBytes(1, func() { runs, _, err = DecodeRuns(src) })
		// Spans take 8 bytes per run and a run at least 2 input bytes;
		// the rest is slack for size classes and the error value.
		if limit := uint64(8*len(src)+2*len(runs.Data)) + 64<<10; used > limit {
			t.Fatalf("DecodeRuns allocated %d bytes for a %d-byte input (limit %d)", used, len(src), limit)
		}
		if err != nil {
			return
		}
		total, prevEnd := 0, int64(0)
		for _, s := range runs.Spans {
			if int64(s.Off) < prevEnd || s.Len < 0 || int64(s.Off)+int64(s.Len) > math.MaxInt32 {
				t.Fatalf("bad span %+v after end %d", s, prevEnd)
			}
			prevEnd = int64(s.Off) + int64(s.Len)
			total += int(s.Len)
		}
		if total != len(runs.Data) {
			t.Fatalf("spans cover %d bytes, data holds %d", total, len(runs.Data))
		}
		again, rest, err := DecodeRuns(EncodeRuns(nil, runs))
		if err != nil || len(rest) != 0 || !runsEqual(again, runs) {
			t.Fatalf("re-encoding diverged: err %v, %d trailing bytes", err, len(rest))
		}
	})
}
