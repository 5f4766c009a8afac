package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The layer ledger: a CPU profile of the traced run, each sample
// charged to one module. The profile is decoded here from its protobuf
// encoding, so nothing beyond the standard library is needed.

// cpuProfile is the part of a pprof profile the ledger uses: one stack
// (leaf first, inlined frames expanded) and CPU nanoseconds per sample.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

// parseProfile decodes a gzipped (or raw) pprof CPU profile.
func parseProfile(data []byte) (*cpuProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sample struct{ locs, values []uint64 }
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []sample
		locLines    = map[uint64][]uint64{} // location id → function ids, leaf first
		funcNames   = map[uint64]uint64{}   // function id → name string index
	)
	err := eachField(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return eachField(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	nsIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			nsIdx = i
		}
	}
	if nsIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if nsIdx >= len(s.values) {
			return nil, errors.New("profile: sample lacks a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, int64(s.values[nsIdx]))
	}
	return p, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field in either encoding:
// one unpacked varint, or a packed run of them.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// ledger is CPU time per module.
type ledger map[string]float64

// attribute charges every sample to one module.
func attribute(p *cpuProfile) (ledger, float64) {
	l := ledger{}
	total := 0.0
	for i, stack := range p.stacks {
		s := float64(p.nanos[i]) / 1e9
		l[moduleOf(stack)] += s
		total += s
	}
	return l, total
}

// moduleOf walks a stack from its leaf and returns the first module a
// frame settles. Repo frames settle on their package; runtime frames
// settle on the gc, sched or syscall bucket when they belong to one.
// Every other frame — the rest of the runtime (memmove, map access,
// slice growth) and the standard library (gob, sha256, json, os) — is
// charged to its caller, so a store's hashing counts as the store's.
// A stack no frame settles is charged to the network stack if it runs
// through it and to "other" otherwise.
func moduleOf(stack []string) string {
	sawNet := false
	for _, fn := range stack {
		if m := frameModule(fn); m != "" {
			return m
		}
		switch pkg := packageOf(fn); {
		case pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "crypto/tls"):
			sawNet = true
		}
	}
	if sawNet {
		return "net"
	}
	return "other"
}

const repoPrefix = "cohmeleon/internal/"

// frameModule returns the module a single frame settles on, or "" for
// a frame charged to its caller.
func frameModule(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, repoPrefix):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, repoPrefix), "/")
		for _, m := range modules {
			if m == name {
				return m
			}
		}
		return "other"
	case pkg == "main" || pkg == "cohmeleon/perfbench" || pkg == "runtime/pprof":
		return "bench"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "runtime/internal/syscall":
		return "runtime.syscall"
	case pkg == "runtime":
		return runtimeBucket(strings.TrimPrefix(fn, "runtime."))
	}
	return ""
}

// Runtime function-name prefixes per bucket.
var (
	gcFuncs = []string{
		"mallocgc", "gc", "GC", "scan", "grey", "markroot", "mark", "shade",
		"findObject", "wbBuf", "bulkBarrier", "sweep", "bgsweep", "scavenge",
		"bgscavenge", "heapBits", "heapSetType", "nextFreeFast", "typePointers",
		"deductSweepCredit", "memclrNoHeapPointersChunked", "(*mheap)", "(*mspan)",
		"(*mcache)", "(*mcentral)", "(*gcWork)", "(*gcBits)", "(*pageAlloc)",
		"(*pallocBits)", "(*fixalloc)", "(*sweepLocked)", "(*mSpanList)",
		"(*gcControllerState)", "(*scavengerState)", "(*stackScanState)",
	}
	schedFuncs = []string{
		"futex", "chan", "select", "gopark", "goready", "ready", "park_m",
		"schedule", "findRunnable", "runq", "stealWork", "mcall", "gosched",
		"goschedImpl", "gopreempt", "newproc", "goexit0", "gfget", "gfput",
		"execute", "wakep", "startm", "stopm", "mPark", "notesleep",
		"notewakeup", "semasleep", "semawakeup", "lock", "unlock", "procyield",
		"osyield", "usleep", "semacquire", "semrelease", "casgstatus",
		"resetspinning", "handoffp", "acquirep", "releasep", "checkTimers",
		"coroswitch", "sync_runtime", "(*waitq)", "(*timers)", "(*semaRoot)",
	}
	syscallFuncs = []string{
		"netpoll", "epoll", "entersyscall", "exitsyscall", "reentersyscall",
		"read", "write", "open", "closefd", "madvise", "mmap", "munmap",
	}
)

// runtimeBucket classifies a runtime function (without the "runtime."
// prefix); "" charges it to its caller.
func runtimeBucket(name string) string {
	for _, b := range []struct {
		bucket string
		funcs  []string
	}{{"runtime.gc", gcFuncs}, {"runtime.syscall", syscallFuncs}, {"runtime.sched", schedFuncs}} {
		for _, f := range b.funcs {
			if strings.HasPrefix(name, f) {
				return b.bucket
			}
		}
	}
	return ""
}

// packageOf returns a function symbol's import path:
// "cohmeleon/internal/cache.(*Directory).Access" → "cohmeleon/internal/cache".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
