// Package des implements a deterministic discrete-event simulation engine —
// the substrate replacing the paper's physical Emulab testbed (§II-B).
// Every experiment behind the paper's figures runs on this clock, and its
// strict determinism is what makes the reproduction's trials replayable
// and its parallel sweeps byte-identical to serial ones.
//
// Simulated processes are ordinary Go functions, each running on a runtime
// coroutine (iter.Pull, see proc.go), so execution is strictly serialized:
// the scheduler and at most one process run at any instant, and a handoff
// between them is a coroutine switch on one thread. A process gets its
// coroutine when it starts and returns it when it ends, so a model that
// waits between bursts of work by scheduling a later process start
// (Env.GoAt) rather than sleeping holds a coroutine only while it works.
// All ties are broken by schedule order, so a simulation with seeded
// random sources replays identically.
//
// The event queue is engineered for the 10⁵–10⁶-client trials of ROADMAP
// item 1: a calendar queue (timing wheel + sorted bucket runs + small
// 4-ary heaps of pointer-free value entries, see queue.go) that pushes and
// pops in O(1) amortized at scale
// while preserving strict (at, seq) pop order; lazy deletion with periodic
// compaction so cancel/re-arm churn (the PS-CPU's completion timer cancels
// on nearly every state change) cannot accumulate dead entries; and
// slab-backed free-list recycling of event records so the steady-state hot
// path — process sleeps, parks, timer re-arms — allocates nothing.
// Recycling never weakens the Event handle API: see Canceled.
//
// Simulated time is a time.Duration measured from the start of the
// simulation. Events and processes interact only through the Env they were
// created on.
package des

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Env is a simulation environment: a clock and a pending-event queue.
// Create one with NewEnv, start processes with Go or GoAt, then call Run;
// call Shutdown when done to release the processes' coroutines. An Env must
// not be shared between operating-system threads that run concurrently;
// all interaction happens from scheduler context (inside a process or an
// event callback).
type Env struct {
	now time.Duration
	q   eventQueue
	seq uint64
	// arena holds every event record ever minted, a slab at a time, at a
	// stable uint32 index (event.idx). Queue entries refer to records by
	// index, not pointer, which keeps the queue's memory pointer-free: the
	// garbage collector neither scans the wheel's buckets nor interposes
	// write barriers on heap sifts — both showed up hard in event-loop
	// profiles when entries carried *event.
	arena [][]event
	// free is the event-record free list. Records are recycled when they
	// can no longer be observed through an Event handle (see recycle).
	// Fresh records are minted a slab at a time (see alloc), so even
	// workloads that permanently retire records — publicly canceled events
	// are never recycled — cost one allocation per slab, not per event.
	free []*event
	// nDead counts heap entries whose event already resolved (canceled
	// timers, re-armed completions). They are skipped on pop; when they
	// outnumber live entries the heap is compacted in place.
	nDead int
	// live lists the processes created with Go or GoAt that have not
	// returned, newest first; procs is its length. idle holds coroutines
	// whose last process returned, waiting for the next one (see proc.go).
	live  *Proc
	procs int
	idle  []*coro
	// running is set while Run executes: Shutdown must not be called then.
	running bool
	stopped bool
	// interrupted is the only cross-thread input to a running simulation:
	// wall-clock watchdogs set it to make Run return at the next event
	// boundary (Shutdown cannot be called concurrently with Run). Run
	// polls it every interruptStride events, not on every iteration, so
	// the atomic load stays off the hot path.
	interrupted atomic.Bool
	// failure holds a panic captured inside a process's coroutine, handed
	// to the scheduler so runProc can re-raise it in Run's calling context.
	failure *ProcPanic
}

// ProcPanic is a panic that escaped a simulated process. The process
// cannot crash the program directly — the scheduler re-raises the captured
// panic as a *ProcPanic from Run, where the experiment layer can recover it
// and turn the trial into an error result.
type ProcPanic struct {
	Proc  string // diagnostic name passed to Go
	Value any    // the original panic value
	Stack []byte // the process's stack at the panic site
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("des: process %q panicked: %v", pp.Proc, pp.Value)
}

// NewEnv returns an environment with the clock at zero.
func NewEnv() *Env { return &Env{} }

// Now returns the current simulated time.
func (e *Env) Now() time.Duration { return e.now }

// Pending returns the number of events scheduled and not yet fired or
// canceled. Canceled events are excluded even while their queue entries
// await lazy removal, so Pending is exactly the count of callbacks that
// will still run if the clock advances far enough.
func (e *Env) Pending() int { return e.q.len() - e.nDead }

// queueLen reports the physical queue size including dead entries awaiting
// compaction — white-box tests bound it under cancel churn.
func (e *Env) queueLen() int { return e.q.len() }

// Live returns the number of processes that have been created with Go or
// GoAt and have not yet returned; this includes scheduled, not yet started
// processes. Shutdown unwinds them all, so Live is 0 as soon as it returns.
func (e *Env) Live() int { return e.procs }

// Audit checks the scheduler's internal bookkeeping: the lazy-deletion
// dead-entry counter must stay within the physical queue and no derived
// count may go negative. It is a cheap pure read, called between Run calls
// by the chaos campaign's conservation-invariant oracle; a violation means
// the event lifecycle itself lost track of an event, not that the model
// misbehaved.
func (e *Env) Audit() error {
	if e.nDead < 0 || e.nDead > e.q.len() {
		return fmt.Errorf("des: dead-entry counter %d outside physical queue of %d entries", e.nDead, e.q.len())
	}
	if live := e.Live(); live < 0 {
		return fmt.Errorf("des: %d live processes", live)
	}
	return nil
}

// Event lifecycle states. An event record is reused through the free list
// once it can no longer be observed through a handle, so the state of a
// record is always interpreted together with its seq (see Event).
const (
	statePending  uint8 = iota // scheduled, will fire
	stateCanceled              // Cancel before firing; record never recycled while observable
	stateFree                  // resolved and recycled (or awaiting reuse)
)

// event is the scheduler's record of one scheduled callback. Exactly one of
// fn, proc, timer is set: fn for public At/After callbacks, proc for the
// engine's own process-resume events (Sleep, Park/Unpark, Go start), timer
// for Timer-owned events. proc and timer events never escape as handles,
// which is what makes their records freely recyclable.
type event struct {
	seq   uint64 // identity: matches the heap entry and any handle while live
	idx   uint32 // stable position in Env.arena, set once when minted
	state uint8
	fn    func()
	proc  *Proc
	timer *Timer
}

// Event is a handle to a scheduled callback, usable to cancel it. The zero
// Event is valid and behaves like an already-canceled event.
type Event struct {
	env *Env
	ev  *event
	seq uint64
}

// Cancel prevents the event's callback from running. Canceling an event that
// already fired or was already canceled is a no-op.
func (ev Event) Cancel() {
	e := ev.ev
	if e == nil || e.seq != ev.seq || e.state != statePending {
		return
	}
	// The record stays out of the free list: the handle (and any copy of
	// it) must keep reporting Canceled() == true for as long as it lives.
	// The queue entry is skipped on pop or dropped at the next compaction.
	e.state = stateCanceled
	e.fn = nil
	ev.env.bumpDead()
}

// Canceled reports whether the event was canceled before it fired. A fired
// event reports false, however long ago it fired: records of canceled
// events are never recycled while a handle can observe them, so a seq
// mismatch proves the event fired and its record moved on.
func (ev Event) Canceled() bool {
	e := ev.ev
	if e == nil {
		return true // zero handle: never scheduled
	}
	return e.seq == ev.seq && e.state == stateCanceled
}

// Pending reports whether the event is still scheduled to fire.
func (ev Event) Pending() bool {
	e := ev.ev
	return e != nil && e.seq == ev.seq && e.state == statePending
}

// slabSize is how many event records one free-list refill mints. It must
// stay a power of two: evAt resolves arena indexes with shift and mask.
const slabSize = 64

// evAt resolves a queue entry's record index to the record.
func (e *Env) evAt(i uint32) *event {
	return &e.arena[i/slabSize][i%slabSize]
}

// alloc takes an event record off the free list (refilling it a slab at a
// time) and stamps it with a fresh seq. seq is the record's identity:
// handles and heap entries holding an older seq observe that their event
// resolved.
func (e *Env) alloc() *event {
	if len(e.free) == 0 {
		if len(e.arena) >= (1<<32)/slabSize {
			panic("des: event arena exhausted (2^32 retained records)")
		}
		base := len(e.arena) * slabSize
		slab := make([]event, slabSize)
		for i := range slab {
			slab[i].idx = uint32(base + i)
			e.free = append(e.free, &slab[i])
		}
		e.arena = append(e.arena, slab)
	}
	n := len(e.free) - 1
	ev := e.free[n]
	e.free[n] = nil
	e.free = e.free[:n]
	ev.seq = e.seq
	e.seq++
	ev.state = statePending
	return ev
}

// recycle returns a resolved record to the free list. Callers guarantee no
// handle semantics are violated: fired events of any kind (a stale handle's
// seq mismatch then proves firing), and canceled proc/timer events (no
// handle ever escaped). Publicly canceled events are never recycled.
func (e *Env) recycle(ev *event) {
	ev.state = stateFree
	ev.fn = nil
	ev.proc = nil
	ev.timer = nil
	e.free = append(e.free, ev)
}

// bumpDead records that a queue entry went dead in place, compacting the
// queue when dead entries outnumber live ones. Compaction preserves firing
// order exactly: entries are keyed by (at, seq), a total order, so any
// valid heap layout pops identically.
func (e *Env) bumpDead() {
	e.nDead++
	if n := e.q.len(); n >= compactMin && e.nDead*2 > n {
		e.compact()
	}
}

// compactMin is the queue size below which compaction is not worth it; it
// bounds the physical queue at roughly twice the live event count plus
// this constant.
const compactMin = 1024

// interruptStride is how many events Run processes between polls of the
// interrupted flag.
const interruptStride = 64

func (e *Env) compact() {
	e.q.sweep(func(en entry) bool {
		ev := e.evAt(en.evi)
		return ev.seq == en.seq && ev.state == statePending
	})
	e.nDead = 0
}

// At schedules fn to run at absolute simulated time t. Callbacks run in
// scheduler context and must not block; to perform blocking operations,
// start a process with Go instead. Scheduling in the past (t < Now) panics.
func (e *Env) At(t time.Duration, fn func()) Event {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.fn = fn
	e.q.push(entry{at: t, seq: ev.seq, evi: ev.idx})
	return Event{env: e, ev: ev, seq: ev.seq}
}

// After schedules fn to run d from now. A negative d panics.
func (e *Env) After(d time.Duration, fn func()) Event {
	return e.At(e.now+d, fn)
}

// schedProc schedules p to resume at absolute time t — the engine's
// allocation-free internal path for Sleep, Unpark, and Go start events,
// which need no closure and return no handle.
func (e *Env) schedProc(t time.Duration, p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, e.now))
	}
	ev := e.alloc()
	ev.proc = p
	e.q.push(entry{at: t, seq: ev.seq, evi: ev.idx})
}

// Run processes events in timestamp order until the queue is empty or the
// next event is later than `until`, then advances the clock to `until`.
// It returns the number of events processed (canceled events are skipped
// and not counted). Run may be called repeatedly with increasing horizons.
func (e *Env) Run(until time.Duration) int {
	if e.stopped {
		panic("des: Run after Shutdown")
	}
	e.running = true
	defer func() { e.running = false }()
	n := 0
	poll := 0
	for {
		if poll == 0 {
			if e.interrupted.Load() {
				return n
			}
			poll = interruptStride
		}
		poll--
		top, ok := e.q.peek()
		if !ok || top.at > until {
			break
		}
		e.q.pop()
		ev := e.evAt(top.evi)
		if ev.seq != top.seq || ev.state != statePending {
			e.nDead-- // canceled (or re-armed) in place; entry now drained
			continue
		}
		e.now = top.at
		// Resolve and recycle before dispatch: the callback may schedule
		// again and reuse this record immediately (a stale handle then
		// sees a seq mismatch, which proves the event fired).
		switch {
		case ev.proc != nil:
			p := ev.proc
			e.recycle(ev)
			e.runProc(p)
		case ev.timer != nil:
			t := ev.timer
			t.ev = nil
			e.recycle(ev)
			t.fn()
		default:
			fn := ev.fn
			e.recycle(ev)
			fn()
		}
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Interrupt asks a running simulation to stop early: Run returns without
// advancing the clock further, leaving pending events queued. The request
// is observed within interruptStride events. It is the one Env method safe
// to call from another operating-system thread while Run executes —
// wall-clock watchdogs use it to flag stalled simulations, after which the
// owner observes Interrupted and calls Shutdown.
func (e *Env) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (e *Env) Interrupted() bool { return e.interrupted.Load() }

// Timer is a re-armable scheduled callback owned by a single component —
// the allocation-free replacement for the cancel-and-reschedule pattern
// (a PS-CPU's completion event, a pool waiter's timeout). Arm cancels any
// previously armed firing, so at most one is outstanding; because the
// Timer's event records never escape as handles, canceled ones are
// recycled immediately instead of lingering for handle exactness. Create
// with Env.NewTimer; use only from scheduler context.
type Timer struct {
	env *Env
	fn  func()
	ev  *event
}

// NewTimer returns an unarmed timer that runs fn each time it fires.
func (e *Env) NewTimer(fn func()) *Timer {
	return &Timer{env: e, fn: fn}
}

// Arm schedules the timer to fire d from now, canceling any earlier
// pending firing. A negative d panics.
func (t *Timer) Arm(d time.Duration) { t.ArmAt(t.env.now + d) }

// ArmAt schedules the timer to fire at absolute time at, canceling any
// earlier pending firing. Scheduling in the past panics.
func (t *Timer) ArmAt(at time.Duration) {
	e := t.env
	if at < e.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", at, e.now))
	}
	t.Stop()
	ev := e.alloc()
	ev.timer = t
	e.q.push(entry{at: at, seq: ev.seq, evi: ev.idx})
	t.ev = ev
}

// Stop cancels the pending firing, if any. The record is recycled
// immediately; the queue entry is skipped on pop or dropped at compaction.
func (t *Timer) Stop() {
	if t.ev == nil {
		return
	}
	ev := t.ev
	t.ev = nil
	t.env.recycle(ev)
	t.env.bumpDead()
}

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.ev != nil }

// eventHeap is a 4-ary min-heap of entries ordered by (at, seq) — half the
// levels of a binary heap, with the four children of a node adjacent in
// memory, so a sift touches a fraction of the cache lines. It serves as the
// whole queue in heap mode and as the cur/far components of the calendar
// queue (see queue.go).
type eventHeap []entry

func (h *eventHeap) push(en entry) {
	*h = append(*h, en)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !en.less(hh[parent]) {
			break
		}
		hh[i] = hh[parent]
		i = parent
	}
	hh[i] = en
}

// pop removes the minimum entry; the caller has already captured h[0].
// Truncated entries are left in place — they are pointer-free and pin
// nothing.
func (h *eventHeap) pop() {
	old := *h
	last := len(old) - 1
	en := old[last]
	*h = old[:last]
	if last > 0 {
		old[0] = en
		(*h).siftDown(0)
	}
}

// init re-establishes the heap invariant over arbitrary contents in O(n);
// sweep uses it after filtering entries in place.
func (h eventHeap) init() {
	if n := len(h); n > 1 {
		for i := (n - 2) / 4; i >= 0; i-- {
			h.siftDown(i)
		}
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	en := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if h[c].less(h[m]) {
				m = c
			}
		}
		if !h[m].less(en) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = en
}
