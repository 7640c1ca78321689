package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/resource"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// slaBound is the paper's 2 s response-time bound: goodput_2s counts
// responses within it and fail_frac counts responses beyond it as late.
const slaBound = 2 * time.Second

// trialSpec is one single-trial workload. It mirrors experiment.Run's
// protocol (ramp, reset every monitor, measure) but steps the simulation
// one simulated second at a time so the harness can time each step and
// sample the engine between steps.
type trialSpec struct {
	cfg experiment.RunConfig // Testbed, Users/Arrivals, Mix, Deadline, RampUp, Measure
	// obs attaches the observability recorder (used for obs.overhead_frac).
	obs bool
	// floor is the liveness gate's completion floor in window completions
	// per simulated second.
	floor float64
}

// windowCounts are the measurement-window outcomes of one trial, counted
// by the harness's own collector.
type windowCounts struct {
	Issued    uint64 `json:"issued"` // requests issued during the window
	OK        uint64 `json:"ok"`     // answered without error
	Good      uint64 `json:"good"`   // answered within slaBound
	Errors    uint64 `json:"errors"`
	Shed      uint64 `json:"shed"`
	Abandoned uint64 `json:"abandoned"`
}

// resolved is every window request that finished: answered, errored or shed.
func (c windowCounts) resolved() uint64 { return c.OK + c.Errors + c.Shed }

// failed is every resolved window request that was not a good response:
// errors, shed, answers later than slaBound (late), and abandonments.
func (c windowCounts) failed() uint64 { return c.Errors + c.Shed + (c.OK - c.Good) + c.Abandoned }

// runCounts are whole-run request counts: the harness's tally from the
// collector callback next to the workload's own counters, for the
// conservation gate.
type runCounts struct {
	Issued      uint64 `json:"issued"`
	Completed   uint64 `json:"completed"`
	Failed      uint64 `json:"failed"`
	Shed        uint64 `json:"shed"`
	InFlight    int    `json:"in_flight"`
	SeenOK      uint64 `json:"seen_ok"`
	SeenFailed  uint64 `json:"seen_failed"`
	InFlightMax int    `json:"in_flight_max"`
}

// trialOut is everything one trial reports.
type trialOut struct {
	Setup time.Duration `json:"-"` // host: build + workload start
	Wall  time.Duration `json:"-"` // host: first event to closed, unwound testbed
	// StepMS is the host time of each one-simulated-second Env.Run step.
	StepMS []float64 `json:"-"`

	Events      int          `json:"events"`
	LivePeak    int          `json:"live_peak"`
	PendingPeak int          `json:"pending_peak"`
	Window      windowCounts `json:"window"`
	Run         runCounts    `json:"run"`
	Measure     float64      `json:"measure_s"`

	SLA    *sla.Collector           `json:"sla"`
	Apache []experiment.ServerStats `json:"apache"`
	Tomcat []experiment.ServerStats `json:"tomcat"`
	CJDBC  []experiment.ServerStats `json:"cjdbc"`
	MySQL  []experiment.ServerStats `json:"mysql"`
	// CPUActive is the mean number of jobs on each node's CPU, sampled
	// once per simulated second of the window.
	CPUActive map[string]float64 `json:"cpu_active"`

	Audit    []string `json:"audit,omitempty"`
	ObsBytes int      `json:"-"`
	// cfg is the run configuration with the trial defaults filled in.
	cfg experiment.RunConfig
}

// servers returns every server's stats in tier order.
func (o *trialOut) servers() []experiment.ServerStats {
	var out []experiment.ServerStats
	out = append(out, o.Apache...)
	out = append(out, o.Tomcat...)
	out = append(out, o.CJDBC...)
	return append(out, o.MySQL...)
}

// runTrial executes one trial of spec, recording spans under parent when
// sp is non-nil. With setupOnly it stops once the workload has started.
func runTrial(spec trialSpec, setupOnly bool, sp *spans, parent int) (*trialOut, error) {
	cfg := spec.cfg
	if cfg.Mix == nil {
		cfg.Mix = rubbos.BrowseOnlyMix()
	}
	if cfg.ThinkMean == 0 {
		cfg.ThinkMean = 7 * time.Second
	}
	if cfg.ClientNodes == 0 {
		cfg.ClientNodes = 2
	}
	measureStart, horizon := cfg.RampUp, cfg.RampUp+cfg.Measure
	if measureStart%time.Second != 0 || horizon%time.Second != 0 {
		return nil, fmt.Errorf("perfbench: ramp and measure must be whole seconds")
	}
	out := &trialOut{Measure: cfg.Measure.Seconds(), CPUActive: map[string]float64{}, cfg: cfg}
	collector := sla.NewCollector([]time.Duration{slaBound})
	collect := func(it *rubbos.Interaction, issued, rt time.Duration, rerr error) {
		if rerr != nil {
			out.Run.SeenFailed++
		} else {
			out.Run.SeenOK++
		}
		if issued < measureStart {
			return
		}
		if rerr != nil {
			if k, ok := tier.ErrKind(rerr); ok && (k == tier.FailShed || k == tier.FailDeadline) {
				collector.ObserveShed()
				out.Window.Shed++
				return
			}
			out.Window.Errors++
			return
		}
		collector.Observe(rt)
		out.Window.OK++
		if rt <= slaBound {
			out.Window.Good++
		}
	}

	t0 := time.Now()
	id := sp.start("testbed.Build", parent)
	tb, err := testbed.Build(cfg.Testbed)
	sp.stop(id)
	if err != nil {
		return nil, err
	}
	defer tb.Close()
	id = sp.start("rubbos.Start", parent)
	var w *rubbos.Workload
	if cfg.Arrivals != nil {
		w, err = tb.StartOpenWorkload(rubbos.OpenConfig{
			Arrivals: cfg.Arrivals, ClientNodes: cfg.ClientNodes, Matrix: cfg.Mix,
			Seed: cfg.Testbed.Seed, Deadline: cfg.Deadline,
		}, collect)
	} else {
		w, err = tb.StartWorkload(rubbos.ClientConfig{
			Users: cfg.Users, ClientNodes: cfg.ClientNodes, ThinkMean: cfg.ThinkMean,
			RampUp: cfg.RampUp / 2, Matrix: cfg.Mix, Seed: cfg.Testbed.Seed,
		}, collect)
	}
	sp.stop(id)
	if err != nil {
		return nil, err
	}
	var rec *obs.Recorder
	if spec.obs {
		id = sp.start("obs.Attach", parent)
		rec = obs.Attach(tb, measureStart, obs.Config{})
		sp.stop(id)
	}
	out.Setup = time.Since(t0)
	if setupOnly {
		closeQuiet(tb)
		return out, nil
	}

	t1 := time.Now()
	nodes := tb.Nodes()
	var issuedBase, abandonedBase uint64
	for now := time.Second; now <= horizon; now += time.Second {
		id = sp.start("des.Env.Run", parent)
		s0 := time.Now()
		out.Events += tb.Env.Run(now)
		out.StepMS = append(out.StepMS, float64(time.Since(s0))/float64(time.Millisecond))
		sp.stop(id)
		out.LivePeak = max(out.LivePeak, tb.Env.Live())
		out.PendingPeak = max(out.PendingPeak, tb.Env.Pending())
		out.Run.InFlightMax = max(out.Run.InFlightMax, w.InFlight())
		if now == measureStart {
			issuedBase, abandonedBase = w.Issued(), w.Abandoned()
			tb.ResetStats()
		}
		if now > measureStart {
			for _, n := range nodes {
				out.CPUActive[n.Name()] += float64(n.CPU().Active())
			}
		}
	}
	window := float64(horizon-measureStart) / float64(time.Second)
	for name := range out.CPUActive {
		out.CPUActive[name] /= window
	}
	collector.SetElapsed(cfg.Measure)
	out.SLA = collector
	out.Window.Issued = w.Issued() - issuedBase
	out.Window.Abandoned = w.Abandoned() - abandonedBase
	out.Run.Issued, out.Run.Completed = w.Issued(), w.Completed()
	out.Run.Failed, out.Run.Shed, out.Run.InFlight = w.Failed(), w.Shed(), w.InFlight()

	id = sp.start("collect", parent)
	out.Apache, out.Tomcat, out.CJDBC, out.MySQL = serverStats(tb)
	for _, e := range tb.Audit(false) {
		out.Audit = append(out.Audit, e.Error())
	}
	if err := w.Audit(); err != nil {
		out.Audit = append(out.Audit, err.Error())
	}
	sp.stop(id)
	if rec != nil {
		id = sp.start("obs.Snapshot", parent)
		snap := rec.Snapshot(obs.TrialSummary{Workload: cfg.Users})
		b, err := json.Marshal(snap)
		sp.stop(id)
		if err != nil {
			return nil, err
		}
		out.ObsBytes = len(b)
	}
	id = sp.start("testbed.Close", parent)
	closeQuiet(tb)
	sp.stop(id)
	out.Wall = time.Since(t1)
	return out, nil
}

// closeQuiet closes tb and waits until every simulated process has
// unwound, so no teardown overlaps whatever is timed next.
func closeQuiet(tb *testbed.Testbed) {
	tb.Close()
	for tb.Env.Live() > 0 {
		runtime.Gosched()
	}
}

// serverStats reads every server's monitors, field for field as
// experiment.Run reports them.
func serverStats(tb *testbed.Testbed) (apache, tomcat, cjdbc, mysql []experiment.ServerStats) {
	now := tb.Env.Now()
	for _, a := range tb.Apaches {
		apache = append(apache, experiment.ServerStats{
			Name: a.Node.Name(), Tier: "apache", CPUUtil: a.Node.Utilization(),
			Pools: []resource.PoolStats{a.Workers.Stats()},
			RTT:   a.Log().MeanRT(), TP: a.Log().Throughput(now), Jobs: a.Log().Jobs(now),
			Resilience: a.Resilience(),
		})
	}
	for _, t := range tb.Tomcats {
		tomcat = append(tomcat, experiment.ServerStats{
			Name: t.Node.Name(), Tier: "tomcat", CPUUtil: t.Node.Utilization(), GC: t.JVM.Stats(),
			Pools: []resource.PoolStats{t.Threads.Stats(), t.Conns.Stats()},
			RTT:   t.Log().MeanRT(), TP: t.Log().Throughput(now), Jobs: t.Log().Jobs(now),
			Resilience: t.Resilience(),
		})
	}
	for _, c := range tb.CJDBCs {
		cjdbc = append(cjdbc, experiment.ServerStats{
			Name: c.Node.Name(), Tier: "cjdbc", CPUUtil: c.Node.Utilization(), GC: c.JVM.Stats(),
			RTT: c.Log().MeanRT(), TP: c.Log().Throughput(now), Jobs: c.Log().Jobs(now),
		})
	}
	for _, m := range tb.MySQLs {
		st := experiment.ServerStats{
			Name: m.Node.Name(), Tier: "mysql", CPUUtil: m.Node.Utilization(),
			RTT: m.Log().MeanRT(), TP: m.Log().Throughput(now), Jobs: m.Log().Jobs(now),
		}
		if d := m.Node.Disk(); d != nil {
			st.DiskUtil = d.Utilization()
		}
		mysql = append(mysql, st)
	}
	return apache, tomcat, cjdbc, mysql
}
