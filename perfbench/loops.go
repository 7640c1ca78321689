package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/hw"
	"github.com/softres/ntier/internal/netsim"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
	"github.com/softres/ntier/internal/trace"
)

// Timing loops time one call into a layer's public functions, repeated
// enough times that the loop takes tens of milliseconds. Each loop holds
// the layer in the state the workload puts it in (resident events, pool
// capacity and queue, active CPU jobs), taken from the workload's own
// counts.
const (
	switchIters  = 50000
	schedIters   = 2000000
	poolIters    = 50000
	cpuIters     = 50000
	tierIters    = 20000
	arrivalIters = 4000000
	nextIters    = 4000000
	journalIters = 40
)

// layerState is what the timing loops take from the workload's run.
type layerState struct {
	pending   int             // des.pending_peak
	poolCap   int             // capacity of one critical pool
	poolQueue int             // its mean queue depth over the window
	cpuJobs   int             // mean active jobs on the busiest CPU
	testbed   testbed.Options // the workload's topology options
	mix       *rubbos.Matrix
	arrivals  trace.ArrivalSpec // the workload's, or the open workload's
	recordB   int               // journal record size in bytes
}

// timed runs fn and returns the host nanoseconds per iteration.
func timed(iters int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(iters)
}

// switchNS is one Park/Unpark round trip between two processes.
func switchNS() float64 {
	env := des.NewEnv()
	defer env.Shutdown()
	var a, b *des.Proc
	b = env.Go("pong", func(p *des.Proc) {
		for {
			p.Park()
			a.Unpark()
		}
	})
	a = env.Go("ping", func(p *des.Proc) {
		p.Sleep(time.Nanosecond) // b is parked by now
		for i := 0; i < switchIters; i++ {
			b.Unpark()
			p.Park()
		}
	})
	return timed(switchIters, func() { env.Run(time.Hour) })
}

// schedNS is one After plus its firing with `resident` other events queued.
func schedNS(resident int) float64 {
	env := des.NewEnv()
	defer env.Shutdown()
	far := 1000 * time.Hour
	r := rng.NewStream(1, "sched")
	for i := 0; i < resident; i++ {
		env.At(far+time.Duration(r.Intn(1<<30)), func() {})
	}
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < schedIters {
			env.After(time.Microsecond, tick)
		}
	}
	env.After(time.Microsecond, tick)
	return timed(schedIters, func() { env.Run(far - 1) })
}

// poolNS is one Acquire plus Release on a pool of capacity units with
// about queue processes waiting: capacity+queue processes cycle through it.
func poolNS(capacity, queue int) float64 {
	env := des.NewEnv()
	defer env.Shutdown()
	pl := resource.NewPool(env, "bench/pool", capacity)
	done := 0
	for i := 0; i < capacity+queue; i++ {
		env.Go("holder", func(p *des.Proc) {
			for done < poolIters {
				pl.Acquire(p)
				p.Sleep(time.Millisecond)
				pl.Release()
				done++
			}
		})
	}
	return timed(poolIters, func() { env.Run(1000 * time.Hour) })
}

// cpuUseNS is one CPU.Use while jobs processes share a one-core CPU.
func cpuUseNS(jobs int) float64 {
	env := des.NewEnv()
	defer env.Shutdown()
	cpu := resource.NewCPU(env, "bench/cpu", 1)
	done := 0
	for i := 0; i < jobs; i++ {
		env.Go("job", func(p *des.Proc) {
			for done < cpuIters {
				cpu.Use(p, time.Millisecond)
				done++
			}
		})
	}
	return timed(cpuIters, func() { env.Run(1000 * time.Hour) })
}

// stubBackend answers Tomcat's database calls without a database tier, so
// the Tomcat loop times the Tomcat model alone.
type stubBackend struct{}

func (stubBackend) Checkout(*des.Proc) error                   { return nil }
func (stubBackend) Query(*des.Proc, *rubbos.Interaction) error { return nil }
func (stubBackend) Release()                                   {}

// runUntil steps env one simulated second at a time until *done: models
// with periodic control timers (admission) never drain their event queue.
func runUntil(env *des.Env, done *bool) {
	for !*done {
		env.Run(env.Now() + time.Second)
	}
}

// loop runs fn(p, it) tierIters times in one process, walking the mix, and
// returns host ns per call.
func loop(env *des.Env, mix *rubbos.Matrix, fn func(*des.Proc, *rubbos.Interaction) error) (float64, error) {
	table := rubbos.NewTable()
	r := rng.NewStream(1, "tier-loop")
	var err error
	done := false
	env.Go("client", func(p *des.Proc) {
		defer func() { done = true }()
		state := rubbos.StoriesOfTheDay
		for i := 0; i < tierIters && err == nil; i++ {
			err = fn(p, &table.Items[state])
			state = mix.Next(r, state)
		}
	})
	ns := timed(tierIters, func() { runUntil(env, &done) })
	return ns, err
}

// tierNS times one request through each tier model over a minimal
// downstream: MySQL alone; C-JDBC over one MySQL; Tomcat over a stub
// backend; Apache over that Tomcat. C-JDBC and Apache cannot take a stub,
// so their own cost is the difference from their downstream's loop.
func tierNS(st layerState) (map[string]float64, error) {
	opts := st.testbed
	spec := hw.PC3000()
	link := netsim.Link{Latency: 700 * time.Microsecond, Spike: &netsim.Spike{}}
	out := map[string]float64{}
	newEnv := func() (*des.Env, func(string) *hw.Node) {
		env := des.NewEnv()
		return env, func(name string) *hw.Node { return hw.NewNode(env, name, spec) }
	}

	env, node := newEnv()
	dbNode := node("mysql1")
	dbNode.AttachDisk()
	m := tier.NewMySQL(env, dbNode, link, rng.NewStream(opts.Seed, "mysql1"))
	mysql, err := loop(env, st.mix, m.Query)
	env.Shutdown()
	if err != nil {
		return nil, err
	}

	env, node = newEnv()
	dbNode = node("mysql1")
	dbNode.AttachDisk()
	m = tier.NewMySQL(env, dbNode, link, rng.NewStream(opts.Seed, "mysql1"))
	c := tier.NewCJDBC(env, node("cjdbc1"), tier.DefaultCJDBCConfig(), []*tier.MySQL{m}, link, rng.NewStream(opts.Seed, "cjdbc1"))
	c.SetUpstreamConns(opts.Soft.AppConns)
	cjdbc, err := loop(env, st.mix, c.Query)
	env.Shutdown()
	if err != nil {
		return nil, err
	}

	newTomcat := func(env *des.Env, node func(string) *hw.Node) *tier.Tomcat {
		t := tier.NewTomcat(env, node("tomcat1"), tier.DefaultTomcatConfig(opts.Soft.AppThreads, opts.Soft.AppConns),
			stubBackend{}, link, rng.NewStream(opts.Seed, "tomcat1"))
		if opts.Resilience != nil {
			t.SetResilience(opts.Resilience, rng.NewStream(opts.Seed, "tomcat1/resilience"))
		}
		return t
	}
	env, node = newEnv()
	tomcat, err := loop(env, st.mix, newTomcat(env, node).Serve)
	env.Shutdown()
	if err != nil {
		return nil, err
	}

	newApache := func(env *des.Env, node func(string) *hw.Node) *tier.Apache {
		a := tier.NewApache(env, node("apache1"), tier.DefaultApacheConfig(opts.Soft.WebThreads),
			[]*tier.Tomcat{newTomcat(env, node)}, link, rng.NewStream(opts.Seed, "apache1"))
		if opts.Resilience != nil {
			a.SetResilience(opts.Resilience, rng.NewStream(opts.Seed, "apache1/resilience"))
		}
		return a
	}
	env, node = newEnv()
	apache, err := loop(env, st.mix, newApache(env, node).Do)
	env.Shutdown()
	if err != nil {
		return nil, err
	}

	// A refusal at the front door: once the residence estimate is seeded
	// by one served request, a request whose deadline is now is shed
	// before it takes a worker.
	env, node = newEnv()
	a := newApache(env, node)
	table := rubbos.NewTable()
	var shedErr error
	done := false
	env.Go("shed", func(p *des.Proc) {
		defer func() { done = true }()
		it := &table.Items[rubbos.StoriesOfTheDay]
		if shedErr = a.Do(p, it); shedErr != nil {
			return
		}
		ctx := &trace.Ctx{}
		p.SetData(ctx)
		for i := 0; i < tierIters; i++ {
			ctx.Deadline = p.Now()
			if err := a.Do(p, it); err == nil {
				shedErr = fmt.Errorf("perfbench: request with an expired deadline was served")
				return
			}
		}
	})
	shed := timed(tierIters, func() { runUntil(env, &done) })
	env.Shutdown()
	if shedErr != nil {
		return nil, shedErr
	}

	out["tier.mysql.req_ns"] = mysql
	out["tier.cjdbc.req_ns"] = cjdbc - mysql
	out["tier.tomcat.req_ns"] = tomcat
	out["tier.apache.req_ns"] = apache - tomcat
	out["tier.apache.shed_ns"] = shed
	return out, nil
}

// arrivalNS is one ArrivalSource.Next of spec.
func arrivalNS(spec trace.ArrivalSpec) float64 {
	src := spec.NewSource(rng.NewStream(1, "arrivals"))
	var sink time.Duration
	ns := timed(arrivalIters, func() {
		for i := 0; i < arrivalIters; i++ {
			sink += src.Next()
		}
	})
	if sink < 0 {
		panic("perfbench: negative arrival gaps")
	}
	return ns
}

// nextNS is one Matrix.Next on the workload's navigation mix.
func nextNS(mix *rubbos.Matrix) float64 {
	r := rng.NewStream(1, "nav")
	state := rubbos.StoriesOfTheDay
	return timed(nextIters, func() {
		for i := 0; i < nextIters; i++ {
			state = mix.Next(r, state)
		}
	})
}

// journalAppendUS is one durable Journal.Record of a recordB-byte record.
func journalAppendUS(dir string, recordB int) (float64, error) {
	path := filepath.Join(dir, "bench.journal")
	os.Remove(path)
	defer os.Remove(path)
	j, err := experiment.OpenJournal(path, "perfbench")
	if err != nil {
		return 0, err
	}
	defer j.Close()
	pad, err := json.Marshal(strings.Repeat("x", max(recordB-64, 1)))
	if err != nil {
		return 0, err
	}
	ns := timed(journalIters, func() {
		for i := 0; i < journalIters && err == nil; i++ {
			err = j.Record(&experiment.TrialRecord{Key: fmt.Sprint(i), Data: pad})
		}
	})
	return ns / 1000, err
}

// loopMetrics runs every timing loop, each inside its own span.
func loopMetrics(st layerState, workDir string, sp *spans, parent int) (map[string]float64, error) {
	m := map[string]float64{}
	run := func(name string, fn func() float64) {
		id := sp.start("loop."+name, parent)
		m[name] = fn()
		sp.stop(id)
	}
	run("des.switch_ns", switchNS)
	run("des.sched_ns", func() float64 { return schedNS(st.pending) })
	run("resource.pool_ns", func() float64 { return poolNS(st.poolCap, st.poolQueue) })
	run("resource.cpu_use_ns", func() float64 { return cpuUseNS(max(st.cpuJobs, 1)) })
	run("trace.arrival_ns", func() float64 { return arrivalNS(st.arrivals) })
	run("rubbos.next_ns", func() float64 { return nextNS(st.mix) })

	id := sp.start("loop.tier", parent)
	tiers, err := tierNS(st)
	sp.stop(id)
	if err != nil {
		return nil, err
	}
	for k, v := range tiers {
		m[k] = v
	}
	id = sp.start("loop.experiment.journal_append_us", parent)
	us, err := journalAppendUS(workDir, st.recordB)
	sp.stop(id)
	if err != nil {
		return nil, err
	}
	m["experiment.journal_append_us"] = us
	return m, nil
}
