package des

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Shutdown must stop every coroutine the Env owns — under a started and
// parked process, a sleeping one, and an idle recycled one — and leave no
// goroutine behind, with a never-started process merely cleaned up. Race
// builds keep idle coroutines in a process-wide pool, so there only the
// cleanups are checked.
func TestShutdownReleasesEveryGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	var cleaned []string
	spawn := func(name string, body func(p *Proc)) *Proc {
		p := env.Go(name, body)
		p.Defer(func() { cleaned = append(cleaned, name) })
		return p
	}
	spawn("parked", func(p *Proc) {
		p.Park()
		t.Error("parked process ran on after Shutdown")
	})
	spawn("sleeping", func(p *Proc) {
		p.Sleep(time.Hour)
		t.Error("sleeping process ran on after Shutdown")
	})
	for i := 0; i < 3; i++ {
		spawn("done", func(p *Proc) { p.Sleep(time.Millisecond) })
	}
	env.Run(time.Second)
	if n := len(env.idle); n == 0 {
		t.Fatal("no idle coroutine after three processes returned")
	}
	spawn("never", func(p *Proc) { t.Error("never-started process ran") })
	if got := runtime.NumGoroutine(); got <= before && !raceEnabled {
		t.Fatalf("NumGoroutine() = %d with live coroutines, want > %d", got, before)
	}
	env.Shutdown()
	// A goroutine another test left exiting can only lower the count.
	if got := runtime.NumGoroutine(); got > before && !raceEnabled {
		t.Errorf("NumGoroutine() = %d after Shutdown, want at most %d", got, before)
	}
	want := []string{"done", "done", "done", "never", "sleeping", "parked"}
	if strings.Join(cleaned, " ") != strings.Join(want, " ") {
		t.Errorf("cleanups ran as %v, want %v", cleaned, want)
	}
}

// Shutdown is synchronous: Live() is 0 and every cleanup has run the moment
// it returns, with no polling.
func TestLiveZeroWhenShutdownReturns(t *testing.T) {
	env := NewEnv()
	cleanups := 0
	for i := 0; i < 100; i++ {
		env.Go("holder", func(p *Proc) {
			p.Defer(func() { cleanups++ })
			p.Sleep(time.Duration(i+1) * time.Hour)
		})
	}
	env.Run(time.Second)
	if env.Live() != 100 {
		t.Fatalf("Live() = %d before Shutdown, want 100", env.Live())
	}
	env.Shutdown()
	if env.Live() != 0 || cleanups != 100 {
		t.Fatalf("after Shutdown: Live() = %d, cleanups = %d; want 0 and 100", env.Live(), cleanups)
	}
	if err := env.Audit(); err != nil {
		t.Error(err)
	}
}

// A recycled coroutine runs its next process with that process's own name,
// a clean data slot, and only its own cleanups.
func TestRecycledCoroutineStartsClean(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	firstCleanups := 0
	first := env.Go("first", func(p *Proc) {
		p.SetData("first's data")
		p.Defer(func() { firstCleanups++ })
	})
	env.Run(0)
	var name string
	var data any
	secondCleanups := 0
	second := env.Go("second", func(p *Proc) {
		name, data = p.Name(), p.Data()
		p.Defer(func() { secondCleanups++ })
	})
	env.Run(0)
	if second.co != first.co {
		t.Fatal("second process did not reuse the first one's coroutine")
	}
	if name != "second" || data != nil {
		t.Errorf("recycled coroutine ran Name() = %q, Data() = %v; want second, nil", name, data)
	}
	if firstCleanups != 1 || secondCleanups != 1 {
		t.Errorf("cleanups ran %d and %d times, want once each", firstCleanups, secondCleanups)
	}
}

// A panic on a recycled coroutine is reported against the process that
// panicked, not the coroutine's earlier one, and the Env stays usable.
func TestPanicInRecycledCoroutine(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	first := env.Go("first", func(p *Proc) {})
	env.Run(0)
	bomb := env.Go("bomb", func(p *Proc) {
		p.Sleep(time.Second)
		panic("kaboom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run(time.Hour)
	}()
	if bomb.co != first.co {
		t.Fatal("bomb did not reuse the first process's coroutine")
	}
	pp, ok := got.(*ProcPanic)
	if !ok {
		t.Fatalf("Run recovered %T (%v), want *ProcPanic", got, got)
	}
	if pp.Proc != "bomb" || pp.Value != "kaboom" {
		t.Errorf("ProcPanic = %q/%v, want bomb/kaboom", pp.Proc, pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "TestPanicInRecycledCoroutine") {
		t.Errorf("ProcPanic.Stack does not show the process body:\n%s", pp.Stack)
	}
	ran := false
	env.Go("after", func(p *Proc) { ran = true })
	env.Run(2 * time.Hour)
	if !ran || env.Live() != 0 {
		t.Errorf("after the panic: ran = %v, Live() = %d; want true, 0", ran, env.Live())
	}
}

// Shutdown from scheduler context — a process or an event callback — must
// panic rather than stop the coroutine it is running on.
func TestShutdownFromSchedulerContextPanics(t *testing.T) {
	run := func(env *Env) (r any) {
		defer func() { r = recover() }()
		env.Run(time.Hour)
		return nil
	}

	env := NewEnv()
	env.Go("self-stopper", func(p *Proc) { p.Env().Shutdown() })
	r := run(env)
	if pp, ok := r.(*ProcPanic); !ok || !strings.Contains(pp.Error(), "des: Shutdown called from scheduler context") {
		t.Errorf("Shutdown inside a process: recovered %v, want a ProcPanic from Shutdown", r)
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
	}

	env = NewEnv()
	env.Go("parked", func(p *Proc) { p.Park() })
	env.After(time.Second, env.Shutdown)
	if msg, _ := run(env).(string); !strings.HasPrefix(msg, "des: Shutdown called from scheduler context") {
		t.Errorf("Shutdown inside a callback: recovered %q, want the des: panic", msg)
	}
	env.Shutdown()
	if env.Live() != 0 {
		t.Errorf("Live() = %d after Shutdown, want 0", env.Live())
	}
}

// Resuming a process that already returned is a bug in the caller; it must
// panic, not resume whatever process now runs on the recycled coroutine.
func TestResumeAfterReturnPanics(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	done := env.Go("done", func(p *Proc) {})
	env.Run(0)
	env.Go("next", func(p *Proc) { p.Park() })
	env.After(time.Second, done.Unpark)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, `process "done" resumed after it returned`) {
			t.Errorf("recovered %q, want the resumed-after-return panic", msg)
		}
	}()
	env.Run(time.Hour)
}

func TestGoAfterShutdownPanics(t *testing.T) {
	env := NewEnv()
	env.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("Go after Shutdown did not panic")
		}
	}()
	env.Go("late", func(p *Proc) {})
}

// Race builds pool retired coroutines across Envs: a later Env's processes
// run on them instead of starting goroutines.
func TestRaceBuildsPoolCoroutinesAcrossEnvs(t *testing.T) {
	if !raceEnabled {
		t.Skip("the cross-Env coroutine pool exists only in race builds")
	}
	first := NewEnv()
	first.Go("parked", func(p *Proc) { p.Park() })
	first.Run(0)
	first.Shutdown()
	before := runtime.NumGoroutine()
	second := NewEnv()
	defer second.Shutdown()
	second.Go("parked", func(p *Proc) { p.Park() })
	second.Run(0)
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("NumGoroutine() = %d after a pooled dispatch, want at most %d", got, before)
	}
}

// GoAt starts its process exactly at t, and Go still starts at Now: here a
// GoAt start and a Go start share an instant and run in call order.
func TestGoAtStartsAtT(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	env.Run(time.Second)
	var order []string
	var startedAt []time.Duration
	start := func(p *Proc) {
		order = append(order, p.Name())
		startedAt = append(startedAt, p.Now())
	}
	env.GoAt(3*time.Second, "later", start)
	env.GoAt(time.Second, "at-now", start)
	env.Go("go", start)
	env.Run(time.Hour)
	if got := fmt.Sprint(order, startedAt); got != "[at-now go later] [1s 1s 3s]" {
		t.Errorf("processes started as %s, want [at-now go later] [1s 1s 3s]", got)
	}
}

// GoAt before Now panics and leaves the Env as it was.
func TestGoAtBeforeNowPanics(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	env.Run(time.Second)
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "before now") {
				t.Errorf("recovered %q, want the scheduling-in-the-past panic", msg)
			}
		}()
		env.GoAt(time.Second-1, "past", func(p *Proc) { t.Error("past process ran") })
	}()
	if env.Live() != 0 || env.Pending() != 0 {
		t.Errorf("after the panic: Live() = %d, Pending() = %d; want 0, 0", env.Live(), env.Pending())
	}
	env.Run(time.Hour)
}

// A GoAt process counts in Live from the call on, holds no coroutine until
// it starts, and leaves Live when it returns.
func TestGoAtCountsLiveFromCall(t *testing.T) {
	env := NewEnv()
	defer env.Shutdown()
	p := env.GoAt(time.Hour, "waiting", func(p *Proc) {})
	if env.Live() != 1 || env.Pending() != 1 {
		t.Fatalf("after GoAt: Live() = %d, Pending() = %d; want 1, 1", env.Live(), env.Pending())
	}
	env.Run(time.Hour - 1)
	if env.Live() != 1 || p.co != nil {
		t.Fatalf("before its start: Live() = %d, coroutine bound = %v; want 1, false", env.Live(), p.co != nil)
	}
	env.Run(time.Hour)
	if env.Live() != 0 {
		t.Errorf("after it returned: Live() = %d, want 0", env.Live())
	}
}

// Shutdown finishes a GoAt process that never started through the
// cleanup-only path: its cleanups run, its body does not, and no coroutine
// is started for it.
func TestShutdownFinishesUnstartedGoAt(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnv()
	env.Run(time.Second)
	cleaned := 0
	p := env.GoAt(time.Hour, "unstarted", func(p *Proc) { t.Error("unstarted process ran") })
	p.Defer(func() { cleaned++ })
	env.Run(time.Minute)
	env.Shutdown()
	if env.Live() != 0 || cleaned != 1 {
		t.Errorf("after Shutdown: Live() = %d, cleanups = %d; want 0, 1", env.Live(), cleaned)
	}
	if p.co != nil {
		t.Error("Shutdown bound a coroutine to a process that never started")
	}
	if got := runtime.NumGoroutine(); got > before && !raceEnabled {
		t.Errorf("NumGoroutine() = %d after Shutdown, want at most %d", got, before)
	}
}
