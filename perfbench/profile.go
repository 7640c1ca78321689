package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile is read with a minimal decoder of the pprof protobuf
// format (profile.proto), which the standard library writes but does not
// read: only samples, locations, functions and the string table are kept.

// pbField is one decoded protobuf field: varint fields carry num, length-
// delimited fields carry buf.
type pbField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

var errProfile = errors.New("perfbench: malformed CPU profile")

// pbFields splits one protobuf message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		b = b[n:]
		f := pbField{tag: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.num, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProfile
			}
			f.num, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProfile
			}
			f.buf, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProfile
			}
			f.num, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProfile
		}
		out = append(out, f)
	}
	return out, nil
}

// varints returns a repeated integer field's values, packed or not.
func (f pbField) varints() ([]uint64, error) {
	if f.wire == 0 {
		return []uint64{f.num}, nil
	}
	var out []uint64
	for b := f.buf; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

// leafCPU decodes a gzipped CPU profile and returns the CPU nanoseconds
// sampled in each leaf function (the innermost, inlined frame included).
func leafCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id -> string index
	locFunc := map[uint64]uint64{}  // location id -> innermost function id
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var samples []sample
	for _, f := range top {
		if f.wire != 2 {
			continue
		}
		if f.tag == 6 { // string_table
			strs = append(strs, string(f.buf))
			continue
		}
		if f.tag != 2 && f.tag != 4 && f.tag != 5 {
			continue
		}
		sub, err := pbFields(f.buf)
		if err != nil {
			return nil, err
		}
		switch f.tag {
		case 2: // Sample
			var s sample
			for _, g := range sub {
				vs, err := g.varints()
				if err != nil {
					return nil, err
				}
				switch g.tag {
				case 1:
					s.locs = append(s.locs, vs...)
				case 2:
					s.vals = append(s.vals, vs...)
				}
			}
			samples = append(samples, s)
		case 4: // Location: id, and its first Line's function
			var id, fn uint64
			seenLine := false
			for _, g := range sub {
				switch {
				case g.tag == 1:
					id = g.num
				case g.tag == 4 && !seenLine:
					seenLine = true
					line, err := pbFields(g.buf)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.tag == 1 {
							fn = h.num
						}
					}
				}
			}
			locFunc[id] = fn
		case 5: // Function: id, name
			var id, name uint64
			for _, g := range sub {
				switch g.tag {
				case 1:
					id = g.num
				case 2:
					name = g.num
				}
			}
			funcName[id] = name
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || len(s.vals) < 2 {
			continue
		}
		name := "unknown"
		if idx, ok := funcName[locFunc[s.locs[0]]]; ok && idx < uint64(len(strs)) {
			name = strs[idx]
		}
		out[name] += int64(s.vals[1]) // value 0 is the sample count, 1 is CPU ns
	}
	return out, nil
}

// profModules are the internal packages reported by name.
var profModules = []string{"des", "resource", "tier", "rubbos", "trace", "jvm", "hw",
	"netsim", "sla", "metrics", "obs", "experiment", "testbed", "rng"}

// Runtime functions by what they do for the program: goroutine handoffs
// (channels, select, parking, the scheduler and its locks and timers), and
// allocation plus garbage collection. A leaf counts toward a group when its
// name is "runtime." followed by one of the group's prefixes; every other
// runtime function is prof.runtime.other.
var (
	schedPrefixes = []string{"chan", "makechan", "closechan", "select", "sel", "send", "recv",
		"gopark", "goready", "park", "ready", "schedule", "findRunnable", "execute", "runq",
		"globrunq", "stealWork", "wakep", "startm", "stopm", "handoffp", "acquirep", "releasep",
		"mPark", "mcall", "gogo", "gosched", "goschedImpl", "goexit", "newproc", "gostartcall",
		"casgstatus", "(*guintptr)", "acquirem", "releasem", "acquireSudog", "releaseSudog",
		"(*waitq)", "lock", "unlock", "(*mLockProfile)", "futex", "note", "sema", "usleep",
		"osyield", "procyield", "nanotime", "(*timers)", "checkTimers", "resetspinning",
		"systemstack", "gfget", "gfput", "malg", "injectglist", "exitsyscall", "entersyscall"}
	gcPrefixes = []string{"malloc", "newobject", "newarray", "growslice", "makeslice",
		"memclrNoHeapPointers", "nextFreeFast", "heapSetType", "(*mheap)", "(*mspan)", "(*mcache)",
		"(*mcentral)", "(*pageAlloc)", "gc", "(*gcWork)", "(*gcControllerState)", "mark", "scan",
		"greyobject", "findObject", "shade", "wbBuf", "(*wbBuf)", "bulkBarrier", "sweep",
		"(*sweepLocked)", "bgsweep", "bgscavenge", "scavenge", "(*scavengerState)", "deductAssistCredit"}
)

// profBucket names the prof.* share a leaf function's time counts toward.
func profBucket(fn string) string {
	const internal = "github.com/softres/ntier/internal/"
	const self = "github.com/softres/ntier/perfbench"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(fn, internal), ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, m := range profModules {
			if pkg == m {
				return "prof." + m
			}
		}
		return "prof.other_internal"
	case strings.HasPrefix(fn, self), strings.HasPrefix(fn, "main."):
		return "prof.perfbench"
	case strings.HasPrefix(fn, "runtime."):
		rest := strings.TrimPrefix(fn, "runtime.")
		for _, p := range gcPrefixes {
			if strings.HasPrefix(rest, p) {
				return "prof.runtime.gc"
			}
		}
		for _, p := range schedPrefixes {
			if strings.HasPrefix(rest, p) {
				return "prof.runtime.sched"
			}
		}
		return "prof.runtime.other"
	case strings.HasPrefix(fn, "internal/runtime/"), strings.HasPrefix(fn, "runtime/internal/"):
		return "prof.runtime.other"
	}
	return "prof.stdlib"
}

// profBuckets lists every prof.* share in a fixed order.
func profBuckets() []string {
	var out []string
	for _, m := range profModules {
		out = append(out, "prof."+m)
	}
	return append(out, "prof.other_internal", "prof.perfbench", "prof.runtime.sched",
		"prof.runtime.gc", "prof.runtime.other", "prof.stdlib")
}

// profShares attributes a CPU profile's self time by bucket; the shares
// sum to 1 when the profile holds any sample.
func profShares(gz []byte) (map[string]float64, int64, error) {
	leaf, err := leafCPU(gz)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]float64{}
	for _, b := range profBuckets() {
		out[b] = 0
	}
	var total int64
	for _, ns := range leaf {
		total += ns
	}
	if total == 0 {
		return out, 0, nil
	}
	for fn, ns := range leaf {
		out[profBucket(fn)] += float64(ns) / float64(total)
	}
	return out, total, nil
}
