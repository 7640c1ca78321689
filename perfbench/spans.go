package main

import (
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are host nanoseconds since the recorder was created; Parent is the index
// of the enclosing span, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// spans keeps every span in memory until the run ends. A nil *spans
// records nothing, so untraced runs pay one nil check per call site.
type spans struct {
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span and returns its index (-1 when not recording).
func (s *spans) start(name string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{Name: name, Start: int64(time.Since(s.t0)), Parent: parent})
	return len(s.list) - 1
}

// stop closes the span opened as id.
func (s *spans) stop(id int) {
	if s == nil || id < 0 {
		return
	}
	s.list[id].End = int64(time.Since(s.t0))
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its direct children cover. Children of one parent run
// one after another in this benchmark, but overlapping children are merged
// so no instant is subtracted twice.
func selfTimes(list []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, sp := range list {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	out := make(map[string]time.Duration)
	for i, sp := range list {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, reach int64 = 0, sp.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, sp.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[sp.Name] += time.Duration(sp.End - sp.Start - covered)
	}
	return out
}
