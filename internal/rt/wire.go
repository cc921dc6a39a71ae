package rt

import (
	"encoding/binary"
	"fmt"
	"math"

	"cvm/internal/core"
	"cvm/internal/transport"
)

// DSM message types carried in transport.Message.Type. Requests carry a
// request id the reply echoes, so replies route back to the blocked
// worker without the dispatcher knowing who asked.
const (
	msgPageReq    uint8 = iota + 1 // reqID, pg          -> home
	msgPageRep                     // reqID, pg, data    <- home
	msgDiffReq                     // reqID, pg, runs    -> home
	msgDiffAck                     // reqID              <- home
	msgLockReq                     // reqID, lock        -> manager
	msgLockGrant                   // reqID              <- manager
	msgLockRel                     // lock               -> manager
	msgBarArrive                   // barrier            -> manager (node 0)
	msgBarRelease                  // barrier            <- manager
	msgRedArrive                   // reduce, op, value  -> manager (node 0)
	msgRedRelease                  // reduce, value      <- manager
)

// classOf maps a message type to its Table 2 accounting class. Page and
// diff traffic is ClassDiff, matching the simulator's classification of
// data-carrying messages.
func classOf(typ uint8) transport.Class {
	switch typ {
	case msgLockReq, msgLockGrant, msgLockRel:
		return transport.ClassLock
	case msgBarArrive, msgBarRelease, msgRedArrive, msgRedRelease:
		return transport.ClassBarrier
	default:
		return transport.ClassDiff
	}
}

// minPayload is each message type's shortest well-formed payload. The
// dispatcher checks it before reading any field, so a truncated frame
// fails the node instead of panicking the process. A page reply must
// moreover carry exactly one page.
var minPayload = [...]int{
	msgPageReq:    8,
	msgPageRep:    8,
	msgDiffReq:    8,
	msgDiffAck:    4,
	msgLockReq:    8,
	msgLockGrant:  4,
	msgLockRel:    4,
	msgBarArrive:  4,
	msgBarRelease: 4,
	msgRedArrive:  13,
	msgRedRelease: 12,
}

// Payload encoding is little-endian fixed-width fields, mirroring the
// page data encoding the Worker accessors use.

func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putU64(b []byte, v uint64) []byte {
	b = putU32(b, uint32(v))
	return putU32(b, uint32(v>>32))
}

func u32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }
func u64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// encodeReq builds a (reqID, arg) payload shared by page requests
// (arg = page) and lock requests (arg = lock id).
func encodeReq(reqID, arg uint32) []byte {
	return putU32(putU32(make([]byte, 0, 8), reqID), arg)
}

// encodePageRep builds a page reply: reqID, page id, page contents. The
// page is copied straight into the reply, which the requester keeps as
// its cached copy.
func encodePageRep(reqID uint32, pg core.PageID, page []byte) []byte {
	b := make([]byte, 8+len(page))
	binary.LittleEndian.PutUint32(b, reqID)
	binary.LittleEndian.PutUint32(b[4:], uint32(pg))
	copy(b[8:], page)
	return b
}

// encodeDiff builds a diff flush in dst's storage and returns it: reqID,
// page id, then the runs in the compressed wire form (run-length + xor8
// prefilter, core.EncodeRuns). The encoding is self-contained, so the
// home can decode it regardless of its own page contents, and decoding
// returns exactly the runs core.MakeDiff produced. Transports may hold
// on to a sent payload, so a caller reusing dst sends a copy.
func encodeDiff(dst []byte, reqID uint32, pg core.PageID, runs core.Runs) []byte {
	b := putU32(dst[:0], reqID)
	b = putU32(b, uint32(pg))
	return core.EncodeRuns(b, runs)
}

// decodeDiff parses an encodeDiff payload back into page id and runs.
func decodeDiff(b []byte) (reqID uint32, pg core.PageID, runs core.Runs, err error) {
	if len(b) < 8 {
		return 0, 0, core.Runs{}, fmt.Errorf("rt: diff payload %d bytes", len(b))
	}
	reqID = u32(b)
	pg = core.PageID(u32(b[4:]))
	runs, rest, err := core.DecodeRuns(b[8:])
	if err != nil {
		return 0, 0, core.Runs{}, fmt.Errorf("rt: diff payload: %w", err)
	}
	if len(rest) != 0 {
		return 0, 0, core.Runs{}, fmt.Errorf("rt: %d trailing bytes after diff runs", len(rest))
	}
	return reqID, pg, runs, nil
}

// encodeRedArrive builds a reduction arrival: reduce id, op, node value.
func encodeRedArrive(id uint32, op core.ReduceOp, v float64) []byte {
	b := make([]byte, 0, 13)
	b = putU32(b, id)
	b = append(b, byte(op))
	return putU64(b, math.Float64bits(v))
}

// encodeRedRelease builds a reduction release: reduce id, result.
func encodeRedRelease(id uint32, v float64) []byte {
	return putU64(putU32(make([]byte, 0, 12), id), math.Float64bits(v))
}
