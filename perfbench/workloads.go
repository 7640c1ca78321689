package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// repFunc runs one timed repetition of a workload.
type repFunc func(seed uint64, env *runEnv, sp *spans, parent int) (*repOut, error)

// workload is one named benchmark input.
type workload struct {
	name string
	why  string
	rep  repFunc
	// critTier and critPool name the workload's critical pool: the pool
	// whose waits bound its goodput (a ServerStats.Pool suffix).
	critTier, critPool string
}

// runEnv carries what a repetition needs from the run around it.
type runEnv struct {
	workDir string // work directory inside the checkout
	rep     int    // repetition index, for unique work paths
	obs     *bool  // override obs on single-trial workloads (nil: as defined)
	par     int    // override campaign parallelism (0: nproc)
	// setupOnly stops the repetition after its set-up, which is then torn
	// down: runs repeat set-up on its own to report a steady median.
	setupOnly bool
}

// repOut is one repetition's outcome.
type repOut struct {
	setup, wall time.Duration // host time
	goodput     float64       // simulated req/s within slaBound
	failFrac    float64       // simulated share of resolved window requests that failed
	goodFrac    float64       // simulated share of resolved window requests answered within slaBound
	digest      string        // hash of every simulated statistic reported
	failures    []string      // correctness-gate violations

	trial *trialOut    // single-trial workloads
	camp  *campaignOut // campaign-rw
}

// The workloads. Their simulated windows are sized so one repetition takes
// a few host seconds on a 2-core machine, which lets a run make several
// repetitions and report their median. Each repetition sets the seed.
var (
	paperHW   = testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2}                 // 1/2/1/2
	paperSoft = testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6} // 400-15-6

	// closedPaper is the Fig. 2 saturation point: 1/2/1/2 at 400-15-6
	// with 6,000 closed-loop browse-only users.
	closedPaper = trialSpec{cfg: experiment.RunConfig{
		Testbed: testbed.Options{Hardware: paperHW, Soft: paperSoft},
		Users:   6000,
		Mix:     rubbos.BrowseOnlyMix(),
		RampUp:  40 * time.Second,
		Measure: 60 * time.Second,
	}, floor: liveFloor}
	// openOverload is the front door at ~14x capacity: Poisson arrivals at
	// 10,000 req/s with overload protection and a 2 s deadline.
	openOverload = trialSpec{cfg: experiment.RunConfig{
		Testbed: testbed.Options{Hardware: paperHW, Soft: paperSoft,
			Resilience: experiment.OverloadProtection()},
		Arrivals: trace.Poisson(10000),
		Deadline: slaBound,
		Mix:      rubbos.BrowseOnlyMix(),
		RampUp:   10 * time.Second,
		Measure:  20 * time.Second,
	}, floor: liveFloor}
	// campaignRW is the Fig. 5 over-allocation campaign with writes:
	// 1/4/1/4, 400 Apache workers, 200 Tomcat threads, 5,000 users, and
	// the DB connection pool swept; obs and a journal are on.
	campaignRW = campaignSpec{
		base: experiment.RunConfig{
			Testbed: testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 4, Mid: 1, DB: 4},
				Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 200, AppConns: 10},
			},
			Mix:     rubbos.ReadWriteMix(),
			RampUp:  30 * time.Second,
			Measure: 30 * time.Second,
		},
		users: 5000,
		conns: []int{10, 50, 100, 200},
		floor: liveFloor,
	}
)

var workloads = []workload{
	{
		name:     "closed-paper",
		why:      "Fig. 2 saturation point (1/2/1/2, 400-15-6, 6000 closed-loop users): process switches, pool waits and PS-CPU steps dominate",
		rep:      singleTrial(closedPaper),
		critTier: "tomcat", critPool: "threads",
	},
	{
		name:     "open-overload",
		why:      "Poisson 10000 req/s (~14x capacity) with overload protection and a 2 s deadline: arrival generation and front-door shedding dominate",
		rep:      singleTrial(openOverload),
		critTier: "apache", critPool: "workers",
	},
	{
		name:     "campaign-rw",
		why:      "Fig. 5 DB-connection sweep on 1/4/1/4 with writes, obs and a journal: JVM GC, MySQL disk, obs, journal and the parallel executor all work",
		rep:      campaign(campaignRW),
		critTier: "tomcat", critPool: "conns",
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// singleTrial runs spec as one trial per repetition.
func singleTrial(spec trialSpec) repFunc {
	return func(seed uint64, env *runEnv, sp *spans, parent int) (*repOut, error) {
		s := spec
		s.cfg.Testbed.Seed = seed
		if env.obs != nil {
			s.obs = *env.obs
		}
		t, err := runTrial(s, env.setupOnly, sp, parent)
		if err != nil {
			return nil, err
		}
		if env.setupOnly {
			return &repOut{setup: t.Setup}, nil
		}
		o := &repOut{setup: t.Setup, wall: t.Wall, trial: t,
			goodput: t.SLA.Goodput(slaBound), failFrac: ratio(t.Window.failed(), t.Window.resolved()),
			goodFrac: ratio(t.Window.Good, t.Window.resolved())}
		o.digest = digestOf(t)
		o.failures = liveness(s).check(t)
		return o, nil
	}
}

// campaignSpec is an allocation sweep over the Tomcat DB connection pool.
type campaignSpec struct {
	base  experiment.RunConfig
	users int
	conns []int
	floor float64 // completion floor of the best trial, req/s
}

// campaignOut is one campaign-rw repetition.
type campaignOut struct {
	Points   []experiment.AllocPoint
	JournalB int64 // journal size on disk after the campaign
	ObsBytes int64 // obs snapshot bytes written
}

// campaign runs spec once per repetition in a fresh journaled state
// directory.
func campaign(spec campaignSpec) repFunc {
	return func(seed uint64, env *runEnv, sp *spans, parent int) (*repOut, error) {
		return campaignRep(spec, seed, env, sp, parent)
	}
}

func campaignRep(spec campaignSpec, seed uint64, env *runEnv, sp *spans, parent int) (*repOut, error) {
	dir := filepath.Join(env.workDir, fmt.Sprintf("campaign-%d-%d", seed, env.rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := spec.base
	base.Testbed.Seed = seed
	base.Parallelism = runtime.NumCPU()
	if env.par > 0 {
		base.Parallelism = env.par
	}
	obsOn := env.obs == nil || *env.obs
	if obsOn {
		base.ObsDir = filepath.Join(dir, "obs")
	}
	users := []int{spec.users}
	softs := make([]string, len(spec.conns))
	for i, c := range spec.conns {
		softs[i] = experiment.VaryAppConns(base.Testbed.Soft, c).String()
	}

	// Set-up: open the state directory and the sweep's journal, then
	// build the first grid point's testbed and start its workload.
	t0 := time.Now()
	id := sp.start("experiment.OpenState", parent)
	fp := experiment.Fingerprint(base, "alloc", fmt.Sprint(users), fmt.Sprint(softs))
	state, err := experiment.OpenState(filepath.Join(dir, "state"), fp, false)
	if err == nil {
		_, err = state.Journal("alloc", fp)
	}
	sp.stop(id)
	if err != nil {
		return nil, err
	}
	defer state.Close()
	base.State = state
	first := base
	first.Testbed.Soft = experiment.VaryAppConns(base.Testbed.Soft, spec.conns[0])
	id = sp.start("testbed.Build", parent)
	tb, err := testbed.Build(first.Testbed)
	sp.stop(id)
	if err != nil {
		return nil, err
	}
	id = sp.start("rubbos.Start", parent)
	_, err = tb.StartWorkload(rubbos.ClientConfig{
		Users: spec.users, ClientNodes: 2, ThinkMean: 7 * time.Second,
		RampUp: base.RampUp / 2, Matrix: base.Mix, Seed: seed,
	}, nil)
	sp.stop(id)
	setup := time.Since(t0)
	closeQuiet(tb)
	if err != nil || env.setupOnly {
		return &repOut{setup: setup}, err
	}

	t1 := time.Now()
	id = sp.start("experiment.AllocSweep", parent)
	points, err := experiment.AllocSweep(base, users, spec.conns, experiment.VaryAppConns)
	sp.stop(id)
	if err != nil {
		return nil, err
	}
	id = sp.start("experiment.State.Close", parent)
	err = state.Close()
	sp.stop(id)
	wall := time.Since(t1)
	if err != nil {
		return nil, err
	}

	c := &campaignOut{Points: points}
	c.JournalB = dirBytes(filepath.Join(dir, "state"), ".journal")
	c.ObsBytes = dirBytes(base.ObsDir, ".json")
	o := &repOut{setup: setup, wall: wall, camp: c}
	var failed, good, resolved uint64
	for _, p := range points {
		if err := p.Curve.Err(); err != nil {
			return nil, err
		}
		r := p.Curve.Results[0]
		o.goodput = max(o.goodput, r.Goodput(slaBound))
		f, g, n := resultCounts(r)
		failed, good, resolved = failed+f, good+g, resolved+n
	}
	o.failFrac, o.goodFrac = ratio(failed, resolved), ratio(good, resolved)
	o.digest = digestOf(campaignDigest(points))
	o.failures = checkCampaign(points, spec.floor)
	return o, nil
}

// resultCounts returns a trial's failed, good and resolved window requests
// under the same rules as windowCounts.
func resultCounts(r *experiment.Result) (failed, good, resolved uint64) {
	ok := r.SLA.Total()
	good = uint64(r.Goodput(slaBound)*r.Config.Measure.Seconds() + 0.5)
	return r.Errors + r.Shed + (ok - good) + r.Abandoned, good, ok + r.Errors + r.Shed
}

// dirBytes sums the sizes of the files in dir with the given suffix.
func dirBytes(dir, suffix string) int64 {
	if dir == "" {
		return 0
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if filepath.Ext(e.Name()) != suffix {
			continue
		}
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
