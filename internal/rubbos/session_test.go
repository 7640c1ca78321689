package rubbos

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/trace"
)

// startSleepLoop is the session model before sessions released their
// process between requests: one process per user for the whole trial,
// sleeping through each think. It is kept as the oracle Start must match
// event for event.
func startSleepLoop(env *des.Env, cfg ClientConfig, table *Table, target Target, collect Collector) *Workload {
	if cfg.Patience > 0 && cfg.AbandonThink == 0 {
		cfg.AbandonThink = 3 * cfg.ThinkMean
	}
	w := &Workload{cfg: cfg, table: table}
	for u := 0; u < cfg.Users; u++ {
		label := fmt.Sprintf("user-%d", u)
		r := rng.NewStream(cfg.Seed, label)
		var offset time.Duration
		if cfg.RampUp > 0 {
			offset = time.Duration(uint64(cfg.RampUp) * uint64(u) / uint64(cfg.Users))
		}
		env.Go(label, func(p *des.Proc) {
			p.Sleep(offset)
			state := StoriesOfTheDay
			think := cfg.ThinkMean
			for {
				p.Sleep(time.Duration(r.Exp(float64(think))))
				if w.stopped {
					return
				}
				think = cfg.ThinkMean
				it := &w.table.Items[state]
				issued := p.Now()
				w.issued++
				var tr *trace.Trace
				if cfg.Tracer != nil {
					if tr = cfg.Tracer.Sample(it.Name, issued); tr != nil {
						p.SetData(tr)
					}
				}
				err := target.Do(p, it)
				if tr != nil {
					cfg.Tracer.Finish(tr, p.Now())
					p.SetData(nil)
				}
				rt := p.Now() - issued
				if err != nil {
					w.failed++
					if collect != nil {
						collect(it, issued, rt, err)
					}
					continue
				}
				w.completed++
				if collect != nil {
					collect(it, issued, rt, nil)
				}
				if cfg.Patience > 0 && rt > cfg.Patience {
					w.abandoned++
					state = StoriesOfTheDay
					think = cfg.AbandonThink
					continue
				}
				state = cfg.Matrix.Next(r, state)
			}
		})
	}
	return w
}

var errPoolTimeout = errors.New("pool wait timed out")

// poolTarget serves each interaction from a bounded pool: wait for a unit
// (failing after timeout, if set), hold it for the interaction's servlet
// demand scaled by scale, release. It annotates sampled traces and tracks
// how many requests are inside Do at once.
type poolTarget struct {
	pool     *resource.Pool
	scale    float64
	timeout  time.Duration
	inDo     int
	inDoPeak int
}

func newPoolTarget(env *des.Env, capacity int, scale float64, timeout time.Duration) *poolTarget {
	return &poolTarget{pool: resource.NewPool(env, "pool", capacity), scale: scale, timeout: timeout}
}

func (t *poolTarget) Do(p *des.Proc, it *Interaction) error {
	t.inDo++
	t.inDoPeak = max(t.inDoPeak, t.inDo)
	defer func() { t.inDo-- }()
	start := p.Now()
	if t.timeout > 0 {
		if ok, _ := t.pool.AcquireTimeout(p, t.timeout); !ok {
			return errPoolTimeout
		}
	} else {
		t.pool.Acquire(p)
	}
	got := p.Now()
	p.Sleep(time.Duration(it.ServletMS * t.scale * float64(time.Millisecond)))
	t.pool.Release()
	if tr, ok := p.Data().(*trace.Trace); ok {
		tr.Add("pool", "wait", start, got)
		tr.Add("pool", "hold", got, p.Now())
	}
	return nil
}

// sessionRun is everything a workload run exposes: per-second event counts
// and Env gauges, the workload's counters, every collector callback in
// order, the SLA collector's JSON and the tracer's retained traces.
type sessionRun struct {
	Events, Live, Pending                             []int
	Issued, Completed, Failed, Abandoned, DrainEvents uint64
	Records                                           []string
	SLA                                               string
	Traces                                            []string
}

func runSessions(t *testing.T, seed uint64, sleepLoop bool) sessionRun {
	t.Helper()
	env := des.NewEnv()
	defer env.Shutdown()
	tgt := newPoolTarget(env, 6, 12, 60*time.Millisecond)
	cfg := ClientConfig{
		Users: 300, ClientNodes: 2, ThinkMean: time.Second, RampUp: 5 * time.Second,
		Matrix: ReadWriteMix(), Seed: seed,
		Tracer:   trace.NewTracer(7, 50),
		Patience: 40 * time.Millisecond,
	}
	col := sla.NewCollector(sla.StandardThresholds)
	var run sessionRun
	collect := func(it *Interaction, issued, rt time.Duration, err error) {
		run.Records = append(run.Records, fmt.Sprintf("%s %d %d %v", it.Name, issued, rt, err))
		if err != nil {
			col.ObserveShed()
		} else {
			col.Observe(rt)
		}
	}
	var w *Workload
	if sleepLoop {
		w = startSleepLoop(env, cfg, NewTable(), tgt, collect)
	} else {
		var err error
		if w, err = Start(env, cfg, NewTable(), tgt, collect); err != nil {
			t.Fatal(err)
		}
	}
	const horizon = 30 * time.Second
	for now := time.Second; now <= horizon; now += time.Second {
		run.Events = append(run.Events, env.Run(now))
		run.Live = append(run.Live, env.Live())
		run.Pending = append(run.Pending, env.Pending())
	}
	w.Stop()
	run.DrainEvents = uint64(env.Run(horizon + time.Minute))
	if err := w.AuditQuiescent(); err != nil {
		t.Error(err)
	}
	if env.Live() != 0 {
		t.Errorf("%d processes live after the drain", env.Live())
	}
	run.Issued, run.Completed, run.Failed, run.Abandoned = w.Issued(), w.Completed(), w.Failed(), w.Abandoned()
	col.SetElapsed(horizon)
	b, err := json.Marshal(col)
	if err != nil {
		t.Fatal(err)
	}
	run.SLA = string(b)
	for _, tr := range cfg.Tracer.Traces() {
		run.Traces = append(run.Traces, tr.String())
	}
	return run
}

// Start's sessions hold a process only while a request is in flight, yet
// must replay the sleep-loop sessions exactly: the same events per second,
// the same Live and Pending gauges, the same request outcomes in the same
// order, and the same drain after Stop — abandonment, failures and traces
// included.
func TestSessionsMatchSleepLoop(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			want := runSessions(t, seed, true)
			got := runSessions(t, seed, false)
			if want.Completed == 0 || want.Failed == 0 || want.Abandoned == 0 || len(want.Traces) == 0 {
				t.Fatalf("oracle run exercises too little: %d completed, %d failed, %d abandoned, %d traces",
					want.Completed, want.Failed, want.Abandoned, len(want.Traces))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("sessions diverge from the sleep loop:\n got: %d issued, %d completed, %d failed, %d abandoned, %d drain events, events %v\nwant: %d issued, %d completed, %d failed, %d abandoned, %d drain events, events %v",
					got.Issued, got.Completed, got.Failed, got.Abandoned, got.DrainEvents, got.Events,
					want.Issued, want.Completed, want.Failed, want.Abandoned, want.DrainEvents, want.Events)
			}
		})
	}
}

// A thinking user holds no coroutine: the goroutines a workload adds are
// bounded by the requests in flight at once, not by the user count.
func TestSessionGoroutinesBoundedByInFlight(t *testing.T) {
	const users = 3000
	before := runtime.NumGoroutine()
	env := des.NewEnv()
	defer env.Shutdown()
	tgt := newPoolTarget(env, 20, 5, 0)
	cfg := ClientConfig{
		Users: users, ClientNodes: 2, ThinkMean: 2 * time.Second, RampUp: time.Second,
		Matrix: BrowseOnlyMix(), Seed: 3,
	}
	w, err := Start(env, cfg, NewTable(), tgt, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for now := 100 * time.Millisecond; now <= 20*time.Second; now += 100 * time.Millisecond {
		env.Run(now)
		peak = max(peak, runtime.NumGoroutine()-before)
	}
	if w.Completed() < users {
		t.Fatalf("only %d requests completed", w.Completed())
	}
	if tgt.inDoPeak > users/10 {
		t.Fatalf("%d requests in flight at once; the target must keep most users thinking", tgt.inDoPeak)
	}
	// One more for the process that is running while the others block.
	if peak > tgt.inDoPeak+2 {
		t.Errorf("workload added %d goroutines with at most %d requests in flight (%d users)",
			peak, tgt.inDoPeak, users)
	}
}

// Set-up stays at four allocations per user: the label, the RNG stream, the
// bound step function and the first process. All sessions share one slice.
// The sleep-loop sessions made five.
func TestStartAllocsPerUser(t *testing.T) {
	const users = 2000
	cfg := DefaultClientConfig(users)
	tbl := NewTable()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Start(des.NewEnv(), cfg, tbl, &fakeTarget{}, nil); err != nil {
			t.Fatal(err)
		}
	})
	if perUser := allocs / users; perUser > 4.1 {
		t.Errorf("Start made %.2f allocations per user, want at most 4.1", perUser)
	}
}
