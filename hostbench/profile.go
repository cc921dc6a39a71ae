package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is bucketed by the package of each sample's leaf
// frame. runtime/pprof writes a gzipped profile.proto; the few fields
// read here are decoded by hand so the benchmark needs nothing beyond
// the Go toolchain.

// cpuBuckets lists the buckets in report order. Packages of this module
// map to their directory name, the root package cvm (the public DSM API)
// to core, and the runtime is split three ways; everything else —
// the standard library, the benchmark itself — is "other".
var cpuBuckets = []string{
	"apps", "core", "sim", "memsim", "netsim", "rt", "transport",
	"runtime_sched", "runtime_gc", "runtime_memmove", "runtime_other", "other",
}

var modulePackages = map[string]string{
	"cvm":                    "core",
	"cvm/internal/apps":      "apps",
	"cvm/internal/core":      "core",
	"cvm/internal/sim":       "sim",
	"cvm/internal/memsim":    "memsim",
	"cvm/internal/netsim":    "netsim",
	"cvm/internal/rt":        "rt",
	"cvm/internal/transport": "transport",
}

// gcFrames mark a runtime sample as garbage collection or allocation
// when any frame of its stack has one of these names.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.newobject", "runtime.makeslice",
	"runtime.growslice", "runtime.newarray", "runtime.markroot", "runtime.gcDrain",
	"runtime.sweepone", "runtime.deductSweepCredit", "runtime.(*mheap).alloc",
	"runtime.wbBufFlush", "runtime.bulkBarrierPreWrite", "runtime.gcWriteBarrier",
}

// schedFrames mark a runtime sample as goroutine scheduling and
// channel handoff.
var schedFrames = []string{
	"runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
	"runtime.gopark", "runtime.goready", "runtime.ready", "runtime.chansend",
	"runtime.chansend1", "runtime.chanrecv", "runtime.chanrecv1", "runtime.chanrecv2",
	"runtime.selectgo", "runtime.goexit0", "runtime.newproc", "runtime.wakep",
	"runtime.startm", "runtime.stopm", "runtime.notesleep", "runtime.notewakeup",
	"runtime.futex", "runtime.gogo", "runtime.execute", "runtime.runqget",
	"runtime.runqput", "runtime.lock2", "runtime.unlock2", "runtime.semrelease1",
	"runtime.semacquire1", "runtime.mstart", "runtime.goschedImpl",
}

// bucketOf classifies one sample given its stack, leaf first. A sample
// taken in the asynchronous-preemption handler belongs to the function
// it interrupted.
func bucketOf(stack []string) string {
	for len(stack) > 1 && stack[0] == "runtime.asyncPreempt" {
		stack = stack[1:]
	}
	if len(stack) == 0 {
		return "runtime_other"
	}
	pkg := packageOf(stack[0])
	if b, ok := modulePackages[pkg]; ok {
		return b
	}
	if pkg != "runtime" && !strings.HasPrefix(pkg, "runtime/internal") && !strings.HasPrefix(pkg, "internal/runtime") {
		return "other"
	}
	if strings.Contains(stack[0], "memmove") {
		return "runtime_memmove"
	}
	if stackHas(stack, gcFrames) || strings.HasPrefix(stack[0], "runtime.gc") ||
		strings.HasPrefix(stack[0], "runtime.memclr") || strings.Contains(stack[0], "mspan") ||
		strings.Contains(stack[0], "mheap") || strings.Contains(stack[0], "mcache") {
		return "runtime_gc"
	}
	if stackHas(stack, schedFrames) {
		return "runtime_sched"
	}
	return "runtime_other"
}

func stackHas(stack, names []string) bool {
	for _, f := range stack {
		for _, n := range names {
			if f == n {
				return true
			}
		}
	}
	return false
}

// packageOf extracts the import path from a Go symbol name such as
// "cvm/internal/core.(*Thread).ReadF64" or "runtime.mallocgc".
func packageOf(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// cpuByBucket decodes a gzipped CPU profile and returns the sampled CPU
// nanoseconds per bucket.
func cpuByBucket(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make(map[string]int64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locs {
			for _, fn := range p.locs[id] {
				stack = append(stack, p.strings[p.funcs[fn]])
			}
		}
		out[bucketOf(stack)] += s.value
	}
	return out, nil
}

// profile holds the decoded subset of profile.proto.
type profile struct {
	strings []string
	funcs   map[uint64]int64    // function id → name string index
	locs    map[uint64][]uint64 // location id → function ids, innermost first
	samples []sample
	cpuIdx  int // index of the cpu/nanoseconds value in each sample
}

type sample struct {
	locs  []uint64 // leaf first
	value int64
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{funcs: map[uint64]int64{}, locs: map[uint64][]uint64{}, cpuIdx: 1}
	var rawSamples [][]byte
	var sampleTypes [][]byte
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type
			sampleTypes = append(sampleTypes, data)
		case 2: // sample
			rawSamples = append(rawSamples, data)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, st := range sampleTypes {
		var typ int64
		if err := eachField(st, func(f, w int, v uint64, _ []byte) error {
			if f == 1 {
				typ = int64(v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if typ >= 0 && int(typ) < len(p.strings) && p.strings[typ] == "cpu" {
			p.cpuIdx = i
		}
	}
	for _, rs := range rawSamples {
		var s sample
		var vals []int64
		err := eachField(rs, func(f, w int, v uint64, d []byte) error {
			switch f {
			case 1:
				if w == 2 {
					return eachVarint(d, func(x uint64) { s.locs = append(s.locs, x) })
				}
				s.locs = append(s.locs, v)
			case 2:
				if w == 2 {
					return eachVarint(d, func(x uint64) { vals = append(vals, int64(x)) })
				}
				vals = append(vals, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if p.cpuIdx < len(vals) {
			s.value = vals[p.cpuIdx]
		}
		p.samples = append(p.samples, s)
	}
	for _, fns := range p.locs {
		for _, fn := range fns {
			if si, ok := p.funcs[fn]; !ok || si < 0 || int(si) >= len(p.strings) {
				return nil, errors.New("location names an unknown function")
			}
		}
	}
	for _, s := range p.samples {
		for _, id := range s.locs {
			if _, ok := p.locs[id]; !ok {
				return nil, errors.New("sample names an unknown location")
			}
		}
	}
	return p, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields data holds the bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

func eachVarint(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}
