//go:build go1.23

package des

import (
	"fmt"
	"iter"
	"runtime/debug"
	"time"
)

// This file is the engine's process layer. Each running process owns a
// runtime coroutine (iter.Pull): the scheduler resumes it with next, and
// the process hands control back through the coroutine's yield. A switch
// stays on the calling thread and never enters the Go scheduler. The file
// needs Go 1.23 for iter.Pull; go1_22.go stops older toolchains with an
// error saying so.

// coro is a runtime coroutine that runs processes one after another. It is
// created at a process's first dispatch and, once that process returns,
// waits on Env.idle for the next one, so a stream of short-lived processes
// (one per arrival) reuses a handful of coroutines.
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	proc  *Proc // the process it runs; nil while idle
}

// killedSentinel is the panic value that unwinds a process resumed by
// Shutdown.
type killedSentinel struct{}

// Proc is a simulated process: a function whose execution interleaves
// deterministically with the simulation clock. All Proc methods must be
// called from inside the process itself.
type Proc struct {
	env      *Env
	name     string
	fn       func(p *Proc)
	co       *coro // nil until the first dispatch
	data     any
	cleanups []func()
	// prev and next link the Env's live-process list, which Shutdown walks.
	prev, next *Proc
}

// SetData attaches arbitrary user data to the process (e.g. a per-request
// trace that downstream components append to).
func (p *Proc) SetData(v any) { p.data = v }

// Data returns the value set with SetData, or nil.
func (p *Proc) Data() any { return p.data }

// Defer registers fn to run when the process ends, on every exit path:
// normal return, a panic captured by the scheduler, and the unwind of
// Shutdown — including processes killed before their first scheduling.
// Callbacks run in reverse registration order, one process at a time.
//
// During a Shutdown unwind no simulation runs, so callbacks must not block
// (no Sleep, Park or pool Acquire); they exist to release external
// accounting, e.g. resource.Pool.Abandon.
func (p *Proc) Defer(fn func()) { p.cleanups = append(p.cleanups, fn) }

// Go starts a new process running fn. The process begins executing at the
// current simulated time (after the caller yields control); Go is GoAt at
// Now. name is used in diagnostics only. Go after Shutdown panics.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc { return e.GoAt(e.now, name, fn) }

// GoAt is Go with a start time: the process begins executing at absolute
// simulated time t. It counts in Live from this call on but gets a
// coroutine only when it starts, so waiting for the start costs one event
// and the Proc, not a stack. Ending a process with GoAt(Now()+d, …) instead
// of Sleep(d) schedules the same event at the same point in the sequence,
// and frees the coroutine for the wait. GoAt before Now panics.
func (e *Env) GoAt(t time.Duration, name string, fn func(p *Proc)) *Proc {
	if e.stopped {
		panic(fmt.Sprintf("des: Go(%q) after Shutdown", name))
	}
	p := &Proc{env: e, name: name, fn: fn, next: e.live}
	e.schedProc(t, p) // panics on t < Now before p joins the live list
	if e.live != nil {
		e.live.prev = p
	}
	e.live = p
	e.procs++
	return p
}

// finish unlinks p from the live list and runs its cleanups. The unlink
// comes first, so a panicking cleanup cannot leave Shutdown a process it
// is unable to unwind.
func (e *Env) finish(p *Proc) {
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		e.live = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	}
	p.prev, p.next = nil, nil
	e.procs--
	cs := p.cleanups
	p.cleanups = nil
	for i := len(cs) - 1; i >= 0; i-- {
		cs[i]()
	}
}

// runProc transfers control to p and returns when p yields again. A
// process's first dispatch binds it to an idle coroutine, or a new one. If
// the process died with a real panic, the captured *ProcPanic is re-raised
// here — in scheduler context — so it propagates out of Run.
func (e *Env) runProc(p *Proc) {
	c := p.co
	if c == nil {
		if n := len(e.idle); n > 0 {
			c = e.idle[n-1]
			e.idle[n-1] = nil
			e.idle = e.idle[:n-1]
		} else if c = pooledCoro(); c == nil {
			c = newCoro()
		}
		c.proc = p
		p.co = c
	} else if c.proc != p {
		panic(fmt.Sprintf("des: process %q resumed after it returned", p.name))
	}
	c.next()
	if f := e.failure; f != nil {
		e.failure = nil
		panic(f)
	}
}

// newCoro starts a coroutine that runs its bound process, parks itself on
// that process's Env's idle list, and waits for the next one, until it is
// stopped.
func newCoro() *coro {
	c := new(coro)
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		for {
			e := c.proc.env
			e.exec(c.proc)
			c.proc = nil
			e.idle = append(e.idle, c)
			if !yield(struct{}{}) {
				return // stopped while idle
			}
		}
	})
	return c
}

// exec runs p to completion on the current coroutine. A real panic is
// captured with the process's stack before cleanups run and handed to
// runProc through e.failure; the sentinel of a Shutdown unwind is not.
func (e *Env) exec(p *Proc) {
	defer func() {
		r := recover()
		var pp *ProcPanic
		if _, killed := r.(killedSentinel); r != nil && !killed {
			pp = &ProcPanic{Proc: p.name, Value: r, Stack: debug.Stack()}
		}
		e.finish(p)
		e.failure = pp
	}()
	p.fn(p)
}

// yield returns control to the scheduler until this process is woken by a
// scheduled event, or unwinds it if Shutdown resumed it.
func (p *Proc) yield() {
	p.co.yield(struct{}{})
	if p.env.stopped {
		panic(killedSentinel{})
	}
}

// Shutdown unwinds every process that has not returned — parked, sleeping,
// or never started, a GoAt process waiting for its start included — and
// then stops the idle coroutines, so no goroutine of the Env outlives it
// (race builds pool them instead, see retireCoro). The unwind is
// synchronous and serial, newest process first: each is resumed once more
// and panics out of its Sleep or Park, running its Defer cleanups, and
// Live() is 0 when Shutdown returns. After Shutdown the Env is unusable.
// Call it once Run has returned; calling it from scheduler context (a
// process or an event callback) panics.
func (e *Env) Shutdown() {
	if e.running {
		panic("des: Shutdown called from scheduler context; call it after Run returns")
	}
	if e.stopped {
		return
	}
	e.stopped = true
	for p := e.live; p != nil; p = e.live {
		if p.co == nil {
			e.finish(p) // never started: cleanups only
		} else {
			e.runProc(p)
		}
	}
	for _, c := range e.idle {
		retireCoro(c)
	}
	e.idle = nil
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current simulated time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Name returns the diagnostic name given to Go.
func (p *Proc) Name() string { return p.name }

// Sleep suspends the process for d of simulated time. Negative d panics.
func (p *Proc) Sleep(d time.Duration) {
	p.env.schedProc(p.env.now+d, p)
	p.yield()
}

// Park suspends the process until another component calls Unpark on it.
// Typical use: append p to a wait queue, then Park; the component that
// grants the resource calls Unpark.
func (p *Proc) Park() { p.yield() }

// Unpark schedules p to resume at the current simulated time. It must be
// called from scheduler context (another process or an event callback), and
// p must be parked — or guaranteed to park before any further simulated
// event fires — when the wakeup is delivered.
func (p *Proc) Unpark() {
	e := p.env
	e.schedProc(e.now, p)
}
