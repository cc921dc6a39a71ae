package core

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Compressed diff encoding. Diffs dominate the DSM's coherence traffic
// (the paper classes all data-carrying messages as "diff messages"), and
// their natural encoding — 8 bytes of header plus raw payload per run —
// wastes most of its bytes on two kinds of redundancy: run headers carry
// absolute 32-bit offsets and lengths when pages are only 8 KB, and
// payloads are word-granular application data (counters, float64 grids)
// whose bytes repeat heavily. The wire form here addresses both:
//
//	uvarint(#runs)
//	per run:  uvarint(gap)              start − end of previous run
//	          uvarint(len<<1 | xor8)    payload length and filter flag
//	          RLE token stream          over the (possibly filtered) payload
//
// RLE tokens: uvarint(t) with t&1==1 meaning "next byte repeats t>>1
// times" and t&1==0 meaning "t>>1 literal bytes follow". The optional
// xor8 prefilter replaces byte i (i ≥ 8) with data[i]^data[i−8] before
// tokenizing, turning slowly-varying word streams into zero runs; the
// encoder tries the run both ways and keeps the smaller, so the flag
// costs one bit and never inflates. The encoding is self-contained —
// nothing is delta'd against receiver state — so decode works at any
// node regardless of its page contents, and DecodeRuns returns exactly
// the flat Runs (spans plus back-to-back data) MakeDiff produced: Apply
// semantics are untouched.
//
// The simulator uses the encoded size for netsim byte accounting when
// Config.CompressDiffs is set (default off: byte-identical legacy
// accounting); the real transport in internal/rt frames diff flushes
// with this encoding unconditionally, since nothing there is gated on
// byte-identity.

// minRepeat is the run length at which a repeat token beats a literal:
// a repeat costs ≤ 3 bytes (token + byte) while 4 literal bytes cost 4,
// plus potentially splitting a literal group.
const minRepeat = 4

// EncodeRuns appends the compressed encoding of runs to dst and returns
// the extended slice. Spans must be ascending, non-overlapping page
// offsets — exactly what MakeDiff emits.
func EncodeRuns(dst []byte, runs Runs) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(runs.Spans)))
	prevEnd := int32(0)
	data := runs.Data
	var scratch []byte
	for _, s := range runs.Spans {
		dst = binary.AppendUvarint(dst, uint64(s.Off-prevEnd))
		prevEnd = s.Off + s.Len
		run := data[:s.Len]
		data = data[s.Len:]

		plainLen := rlePayloadSize(run)
		scratch = xor8Filter(scratch[:0], run)
		xorLen := rlePayloadSize(scratch)
		if xorLen < plainLen {
			dst = binary.AppendUvarint(dst, uint64(s.Len)<<1|1)
			dst = appendRLEPayload(dst, scratch)
		} else {
			dst = binary.AppendUvarint(dst, uint64(s.Len)<<1)
			dst = appendRLEPayload(dst, run)
		}
	}
	return dst
}

// EncodedRunsSize reports len(EncodeRuns(nil, runs)) without building
// the encoding.
func EncodedRunsSize(runs Runs) int {
	n := uvarintSize(uint64(len(runs.Spans)))
	prevEnd := int32(0)
	data := runs.Data
	var scratch []byte
	for _, s := range runs.Spans {
		n += uvarintSize(uint64(s.Off - prevEnd))
		prevEnd = s.Off + s.Len
		run := data[:s.Len]
		data = data[s.Len:]
		n += uvarintSize(uint64(s.Len) << 1)
		plainLen := rlePayloadSize(run)
		scratch = xor8Filter(scratch[:0], run)
		if xorLen := rlePayloadSize(scratch); xorLen < plainLen {
			n += xorLen
		} else {
			n += plainLen
		}
	}
	return n
}

// maxDiffData bounds the decoded payload of one diff. A diff covers one
// page, so a legal payload stays far below it; the bound keeps a
// few-byte run of repeat tokens from demanding gigabytes.
const maxDiffData = 1 << 24

// DecodeRuns parses an EncodeRuns payload back into runs, returning the
// unconsumed remainder of src. A first pass validates and sizes the whole
// payload, so a well-formed one costs exactly two allocations (Spans and
// Data at their final sizes) and a malformed one allocates nothing but
// its error: the run count is capped by what the input can hold (every
// run takes at least two header bytes), offsets must fit int32, and the
// decoded data must stay within maxDiffData.
func DecodeRuns(src []byte) (runs Runs, rest []byte, err error) {
	count, src, err := readUvarint(src)
	if err != nil {
		return Runs{}, nil, fmt.Errorf("core: diff run count: %w", err)
	}
	if count > uint64(len(src)/2) {
		return Runs{}, nil, fmt.Errorf("core: diff run count %d exceeds what %d bytes can hold", count, len(src))
	}
	total, rest, err := decodeRuns(src, int(count), Runs{})
	if err != nil {
		return Runs{}, nil, err
	}
	if count == 0 {
		return Runs{}, rest, nil
	}
	runs = Runs{Spans: make([]Span, count), Data: make([]byte, total)}
	decodeRuns(src, int(count), runs)
	return runs, rest, nil
}

// decodeRuns walks count encoded runs in src, returning the total data
// length and the remainder. With out empty it only validates; otherwise
// out's Spans and Data, sized by a validating walk over the same input,
// receive the runs.
func decodeRuns(src []byte, count int, out Runs) (total int, rest []byte, err error) {
	off := int64(0)
	for k := 0; k < count; k++ {
		gap, s, err := readUvarint(src)
		if err != nil {
			return 0, nil, fmt.Errorf("core: diff run %d gap: %w", k, err)
		}
		lm, s, err := readUvarint(s)
		if err != nil {
			return 0, nil, fmt.Errorf("core: diff run %d header: %w", k, err)
		}
		length := lm >> 1
		if gap > math.MaxInt32 || length > math.MaxInt32 || off+int64(gap)+int64(length) > math.MaxInt32 {
			return 0, nil, fmt.Errorf("core: diff run %d (gap %d, length %d) overflows int32 offsets", k, gap, length)
		}
		if uint64(total)+length > maxDiffData {
			return 0, nil, fmt.Errorf("core: diff run %d: data exceeds %d bytes", k, maxDiffData)
		}
		off += int64(gap)
		var dst []byte
		if out.Data != nil {
			dst = out.Data[total : total+int(length)]
			out.Spans[k] = Span{Off: int32(off), Len: int32(length)}
		}
		if s, err = decodeRLEPayload(dst, s, int(length)); err != nil {
			return 0, nil, fmt.Errorf("core: diff run %d payload: %w", k, err)
		}
		if lm&1 != 0 {
			for i := 8; i < len(dst); i++ {
				dst[i] ^= dst[i-8]
			}
		}
		off += int64(length)
		total += int(length)
		src = s
	}
	return total, src, nil
}

// xor8Filter appends the xor8-prefiltered form of data to dst: the first
// 8 bytes verbatim, then each byte xored with the byte one word earlier.
func xor8Filter(dst, data []byte) []byte {
	n := len(data)
	if n <= 8 {
		return append(dst, data...)
	}
	base := len(dst)
	dst = append(dst, data...)
	b := dst[base:]
	for i := n - 1; i >= 8; i-- {
		b[i] ^= b[i-8]
	}
	return dst
}

// appendRLEPayload tokenizes data: repeat tokens for byte runs of at
// least minRepeat, literal groups otherwise.
func appendRLEPayload(dst, data []byte) []byte {
	i, litStart := 0, 0
	n := len(data)
	for i < n {
		j := i + 1
		for j < n && data[j] == data[i] {
			j++
		}
		if j-i >= minRepeat {
			if i > litStart {
				dst = binary.AppendUvarint(dst, uint64(i-litStart)<<1)
				dst = append(dst, data[litStart:i]...)
			}
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1|1)
			dst = append(dst, data[i])
			litStart = j
		}
		i = j
	}
	if n > litStart {
		dst = binary.AppendUvarint(dst, uint64(n-litStart)<<1)
		dst = append(dst, data[litStart:]...)
	}
	return dst
}

// rlePayloadSize reports len(appendRLEPayload(nil, data)) without
// building it.
func rlePayloadSize(data []byte) int {
	size := 0
	i, litStart := 0, 0
	n := len(data)
	for i < n {
		j := i + 1
		for j < n && data[j] == data[i] {
			j++
		}
		if j-i >= minRepeat {
			if i > litStart {
				size += uvarintSize(uint64(i-litStart)<<1) + (i - litStart)
			}
			size += uvarintSize(uint64(j-i)<<1|1) + 1
			litStart = j
		}
		i = j
	}
	if n > litStart {
		size += uvarintSize(uint64(n-litStart)<<1) + (n - litStart)
	}
	return size
}

// decodeRLEPayload consumes the token stream of a want-byte payload
// from src, expanding it into dst when dst is non-nil (len(dst) ==
// want), and returns the remainder of src.
func decodeRLEPayload(dst, src []byte, want int) ([]byte, error) {
	for n := 0; n < want; {
		t, s, err := readUvarint(src)
		if err != nil {
			return nil, err
		}
		src = s
		cnt := t >> 1
		if t&1 != 0 {
			if len(src) < 1 || cnt > uint64(want-n) {
				return nil, fmt.Errorf("bad repeat token %d at %d/%d", t, n, want)
			}
			if dst != nil {
				b := src[0]
				for i := range dst[n : n+int(cnt)] {
					dst[n+i] = b
				}
			}
			src = src[1:]
		} else {
			if cnt > uint64(len(src)) || cnt > uint64(want-n) {
				return nil, fmt.Errorf("bad literal token %d at %d/%d", t, n, want)
			}
			if dst != nil {
				copy(dst[n:], src[:cnt])
			}
			src = src[cnt:]
		}
		n += int(cnt)
	}
	return src, nil
}

// AppendVClock appends a compact encoding of vt to dst: uvarint(length),
// then tokens covering the components in order — uvarint(zn<<1|1) skips
// zn zero components, uvarint(cnt<<1) is followed by cnt uvarint values.
// Vector times at scale are almost entirely zeros (a node has synced
// with few peers), so a 1024-component clock costs a few bytes instead
// of 4 KB.
func AppendVClock(dst []byte, vt VClock) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vt)))
	i, n := 0, len(vt)
	for i < n {
		j := i
		for j < n && vt[j] == 0 {
			j++
		}
		if j > i {
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1|1)
			i = j
		}
		for j < n && vt[j] != 0 {
			j++
		}
		if j > i {
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1)
			for ; i < j; i++ {
				dst = binary.AppendUvarint(dst, uint64(uint32(vt[i])))
			}
		}
	}
	return dst
}

// VClockEncodedSize reports len(AppendVClock(nil, vt)) without building
// it.
func VClockEncodedSize(vt VClock) int {
	n := uvarintSize(uint64(len(vt)))
	i, l := 0, len(vt)
	for i < l {
		j := i
		for j < l && vt[j] == 0 {
			j++
		}
		if j > i {
			n += uvarintSize(uint64(j-i)<<1 | 1)
			i = j
		}
		for j < l && vt[j] != 0 {
			j++
		}
		if j > i {
			n += uvarintSize(uint64(j-i) << 1)
			for ; i < j; i++ {
				n += uvarintSize(uint64(uint32(vt[i])))
			}
		}
	}
	return n
}

// DecodeVClock parses an AppendVClock payload, returning the clock and
// the unconsumed remainder of src.
func DecodeVClock(src []byte) (VClock, []byte, error) {
	length, src, err := readUvarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("core: vclock length: %w", err)
	}
	if length > 1<<20 {
		return nil, nil, fmt.Errorf("core: vclock length %d too large", length)
	}
	vt := NewVClock(int(length))
	i := 0
	for i < int(length) {
		t, s, err := readUvarint(src)
		if err != nil {
			return nil, nil, fmt.Errorf("core: vclock token: %w", err)
		}
		src = s
		cnt := int(t >> 1)
		if i+cnt > int(length) {
			return nil, nil, fmt.Errorf("core: vclock token overruns %d+%d/%d", i, cnt, length)
		}
		if t&1 != 0 {
			i += cnt // zeros
			continue
		}
		for k := 0; k < cnt; k++ {
			v, s, err := readUvarint(src)
			if err != nil {
				return nil, nil, fmt.Errorf("core: vclock value: %w", err)
			}
			src = s
			vt[i] = int32(uint32(v))
			i++
		}
	}
	return vt, src, nil
}

// uvarintSize reports the encoded size of v.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint consumes one uvarint from src.
func readUvarint(src []byte) (uint64, []byte, error) {
	if len(src) > 0 && src[0] < 0x80 {
		return uint64(src[0]), src[1:], nil // one-byte fast path
	}
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated or malformed uvarint")
	}
	return v, src[n:], nil
}

// WirePatternPages builds the (twin, cur) page pair for one of the
// named diff-wire workload patterns. The perf baseline (cvm-bench
// -experiment perf), the cvm-metrics compression gate, and the
// diff-wire benchmarks all share these fixtures, so the gated ratios
// measure exactly what the benchmarks do.
//
//   - "sparse": scattered clusters of word-aligned int64 counter updates
//     over a previously-written page (the common single-writer case:
//     1/8 of the page modified, word payloads with high zero-byte
//     content).
//   - "dense": bulk initialization — nearly every byte modified with
//     high-entropy values; the incompressible floor.
//   - "strided": a regular stride of float64 grid-point updates, the
//     nearest-neighbor relaxation shape (SOR, Ocean).
func WirePatternPages(pattern string, pageSize int) (twin, cur []byte) {
	twin = make([]byte, pageSize)
	cur = make([]byte, pageSize)
	switch pattern {
	case "sparse":
		for i := range twin {
			twin[i] = 0xFF // prior-epoch sentinel values
		}
		copy(cur, twin)
		for cluster := 0; cluster*512+64 <= pageSize; cluster++ {
			base := cluster * 512
			for w := 0; w < 8; w++ {
				binary.LittleEndian.PutUint64(cur[base+8*w:], uint64(cluster*8+w+1))
			}
		}
	case "dense":
		for i := range cur {
			cur[i] = byte(i)*167 + 13
		}
	case "strided":
		for w := 0; w*8+8 <= pageSize; w++ {
			v := 1.0 + float64(w)*0.25
			binary.LittleEndian.PutUint64(twin[w*8:], math.Float64bits(v))
			if w%4 == 0 {
				v += 0.5
			}
			binary.LittleEndian.PutUint64(cur[w*8:], math.Float64bits(v))
		}
	default:
		panic("core: unknown wire pattern " + pattern)
	}
	return twin, cur
}

// WirePatterns lists the diff-wire workload patterns in report order.
func WirePatterns() []string { return []string{"sparse", "dense", "strided"} }

// WireBytes reports the diff's payload size on the simulated wire: the
// legacy fixed-width accounting when compress is false (16-byte header,
// 4 bytes per vector-clock component, 8 bytes per run header plus raw
// data), or the compressed encoding's exact size when true. The
// compressed size is computed once and cached; callers must be on the
// diff's creator node (the only node that serves it), which keeps the
// cache single-writer under the parallel engine.
func (d *Diff) WireBytes(compress bool) int {
	if !compress {
		return d.Bytes()
	}
	if d.encSize == 0 {
		d.encSize = int32(16 + VClockEncodedSize(d.VT) + EncodedRunsSize(d.Runs))
	}
	return int(d.encSize)
}
