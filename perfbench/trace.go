package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/resource"
)

// setter records one per-layer metric.
type setter func(name, unit string, v float64)

// traceRun is the per-layer run: one repetition traced with spans and a
// CPU profile, the obs and parallelism comparisons, and the timing loops.
// untraced is the last untraced repetition and wall the untraced median
// wall time. It fills m with every per-layer metric and reports whether
// every gate of the traced run held.
func traceRun(w *workload, seed uint64, workDir string, untraced *repOut, wall float64, m map[string]metric, log io.Writer) (bool, error) {
	set := setter(func(name, unit string, v float64) { m[name] = metric{v, unit} })
	sp := newSpans()
	root := sp.start("rep", -1)
	var prof bytes.Buffer
	runtime.GC()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return false, err
	}
	tr, err := w.rep(seed, &runEnv{workDir: workDir, rep: 1 << 20}, sp, root)
	pprof.StopCPUProfile()
	sp.stop(root)
	if err != nil {
		return false, fmt.Errorf("traced repetition: %w", err)
	}
	fails := append(tr.failures, checkRepeat([]*repOut{untraced, tr})...)
	set("bench.trace_overhead_s", "s", tr.wall.Seconds()-wall)

	profPath := filepath.Join(workDir, fmt.Sprintf("cpu-%s-%d.pprof", w.name, seed))
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return false, err
	}
	shares, cpuNS, err := profShares(prof.Bytes())
	if err != nil {
		return false, err
	}
	for name, v := range shares {
		set(name, "ratio", v)
	}
	set("prof.cpu_s", "s", float64(cpuNS)/1e9)

	self := selfTimes(sp.list)
	set("span.testbed_build_ms", "ms", ms(self["testbed.Build"]))
	set("span.workload_start_ms", "ms", ms(self["rubbos.Start"]+self["experiment.OpenState"]))
	set("span.sim_ms", "ms", ms(self["des.Env.Run"]+self["experiment.AllocSweep"]))
	set("span.collect_ms", "ms", ms(self["collect"]+self["obs.Attach"]+self["obs.Snapshot"]+
		self["testbed.Close"]+self["experiment.State.Close"]))
	set("span.harness_self_ms", "ms", ms(self["rep"]))

	var src *layerSource
	var more []string
	if tr.camp != nil {
		src, more, err = campaignLayers(w, seed, workDir, tr, wall, set, sp, root)
	} else {
		src, more, err = trialLayers(w, seed, workDir, untraced, wall, set, sp, root)
	}
	if err != nil {
		return false, err
	}
	fails = append(fails, more...)
	st := simMetrics(w, src, set)
	if tr.camp != nil {
		st.recordB = int(tr.camp.JournalB) / len(tr.camp.Points)
	} else {
		b, err := json.Marshal(src.t)
		if err != nil {
			return false, err
		}
		st.recordB = len(b)
	}
	loops, err := loopMetrics(st, workDir, sp, root)
	if err != nil {
		return false, err
	}
	for name, v := range loops {
		unit := "ns"
		if name == "experiment.journal_append_us" {
			unit = "us"
		}
		set(name, unit, v)
	}

	path := filepath.Join(workDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed))
	b, err := json.MarshalIndent(sp.list, "", " ")
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return false, err
	}
	fmt.Fprintf(log, "spans %s (%d spans), CPU profile %s\n", path, len(sp.list), profPath)
	for _, f := range fails {
		fmt.Fprintf(log, "GATE FAILED traced run: %s\n", f)
	}
	return len(fails) == 0, nil
}

// layerSource is the single trial the simulated layer statistics are read
// from, with the engine totals of the whole workload.
type layerSource struct {
	t       *trialOut
	events  int           // events fired over every trial of the workload
	simWall time.Duration // host time of those trials, one at a time
	gcMax   float64       // largest C-JDBC GC share over the trials
}

// trialLayers reads a single-trial workload's layer statistics from its
// untraced repetition and measures the obs overhead: the workload runs
// with obs off, so the comparison attaches the recorder.
func trialLayers(w *workload, seed uint64, workDir string, untraced *repOut, wall float64, set setter, sp *spans, root int) (*layerSource, []string, error) {
	t := untraced.trial
	src := &layerSource{t: t, events: t.Events, simWall: time.Duration(wall * float64(time.Second))}
	for _, c := range t.CJDBC {
		src.gcMax = max(src.gcMax, c.GC.GCFraction)
	}
	on := true
	id := sp.start("compare.obs_on", root)
	onWall, obsRep, err := medianRep(w, seed, runEnv{workDir: workDir, obs: &on})
	sp.stop(id)
	if err != nil {
		return nil, nil, err
	}
	var fails []string
	// The recorder adds its own sampling events, so the engine counts
	// differ; every statistic of the modelled system must not.
	if a, b := modelDigest(obsRep.trial), modelDigest(t); a != b {
		fails = append(fails, fmt.Sprintf("obs perturbed the simulation: model digest %s, want %s", a, b))
	}
	set("obs.overhead_frac", "ratio", onWall/wall-1)
	set("obs.snapshot_bytes", "bytes", float64(obsRep.trial.ObsBytes))
	set("experiment.speedup", "x", 0) // a single trial has no campaign to parallelize
	return src, fails, nil
}

// campaignLayers re-runs every grid point of the traced campaign through
// the stepping harness, which must reproduce experiment.Run and pass the
// audits, and reads the layer statistics from the best point. It then
// measures the obs overhead (the campaign runs with obs on) and the
// speed-up of the parallel executor.
func campaignLayers(w *workload, seed uint64, workDir string, tr *repOut, wall float64, set setter, sp *spans, root int) (*layerSource, []string, error) {
	src := &layerSource{}
	var fails []string
	var trials []*trialOut
	best := 0
	for i, p := range tr.camp.Points {
		r := p.Curve.Results[0]
		if r.Goodput(slaBound) > tr.camp.Points[best].Curve.Results[0].Goodput(slaBound) {
			best = i
		}
		spec := trialSpec{cfg: r.Config}
		spec.cfg.ObsDir, spec.cfg.State = "", nil
		id := sp.start("harness.trial", root)
		ht, err := runTrial(spec, false, nil, -1)
		sp.stop(id)
		if err != nil {
			return nil, nil, err
		}
		if digestOf(ht.servers()) != digestOf(r.Servers()) || ht.SLA.Total() != r.SLA.Total() {
			fails = append(fails, fmt.Sprintf("harness trial %s differs from experiment.Run", p.Soft))
		}
		// Audits and conservation; the liveness floor applies to the
		// best trial only (checkCampaign).
		for _, f := range (trialGate{maxInFlight: spec.cfg.Users}).check(ht) {
			fails = append(fails, fmt.Sprintf("harness trial %s: %s", p.Soft, f))
		}
		src.events += ht.Events
		src.simWall += ht.Wall
		for _, c := range ht.CJDBC {
			src.gcMax = max(src.gcMax, c.GC.GCFraction)
		}
		trials = append(trials, ht)
	}
	src.t = trials[best]

	off := false
	id := sp.start("compare.obs_off", root)
	offWall, _, err := medianRep(w, seed, runEnv{workDir: workDir, obs: &off})
	sp.stop(id)
	if err != nil {
		return nil, nil, err
	}
	set("obs.overhead_frac", "ratio", wall/offWall-1)
	set("obs.snapshot_bytes", "bytes", float64(tr.camp.ObsBytes)/float64(len(tr.camp.Points)))
	id = sp.start("compare.parallel_1", root)
	p1, err := w.rep(seed, &runEnv{workDir: workDir, rep: 1 << 21, par: 1}, nil, -1)
	sp.stop(id)
	if err != nil {
		return nil, nil, err
	}
	set("experiment.speedup", "x", p1.wall.Seconds()/wall)
	return src, fails, nil
}

// simMetrics records the simulated layer statistics of src and returns the
// state the timing loops reproduce.
func simMetrics(w *workload, src *layerSource, set setter) layerState {
	t := src.t
	set("des.events", "count", float64(src.events))
	set("des.ns_per_event", "ns", float64(src.simWall.Nanoseconds())/float64(src.events))
	set("des.live_peak", "count", float64(t.LivePeak))
	set("des.pending_peak", "count", float64(t.PendingPeak))
	stepMax, growth := stepStats(t)
	set("des.host_ms_per_sim_s.max", "ms", stepMax)
	set("des.host_ms_per_sim_s.growth", "ratio", growth)

	crit, instances := critical(w, t)
	cpuName, cpuUtil := busiestCPU(t)
	set("resource.crit_pool.grants", "count", float64(crit.Grants))
	set("resource.crit_pool.waited_frac", "ratio", ratio(crit.Waited, crit.Grants))
	set("resource.crit_pool.mean_wait_ms", "ms", ms(crit.MeanWait))
	set("resource.crit_cpu.util", "ratio", cpuUtil)

	for name, ss := range t.tiers() {
		var tp, rtW float64
		for _, s := range ss {
			tp += s.TP
			rtW += s.TP * ms(s.RTT)
		}
		set("tier."+name+".tp", "req/s", tp)
		set("tier."+name+".rtt_ms", "ms", rtW/max(tp, 1e-9))
	}
	set("tier.apache.shed", "count", float64(t.Window.Shed))
	set("rubbos.issued", "count", float64(t.Window.Issued))
	set("rubbos.completed", "count", float64(t.Window.OK))
	set("rubbos.inflight_end", "count", float64(t.Run.InFlight))
	set("rubbos.fail_frac", "ratio", ratio(t.Window.failed(), t.Window.resolved()))

	var tomcatGC, cjdbcGC, diskUtil float64
	for _, s := range t.Tomcat {
		tomcatGC += s.GC.GCFraction / float64(len(t.Tomcat))
	}
	for _, s := range t.CJDBC {
		cjdbcGC = max(cjdbcGC, s.GC.GCFraction)
	}
	for _, s := range t.MySQL {
		diskUtil = max(diskUtil, s.DiskUtil)
	}
	set("jvm.cjdbc.gc_frac", "ratio", cjdbcGC)
	set("jvm.cjdbc.gc_frac.max", "ratio", src.gcMax)
	set("jvm.tomcat.gc_frac", "ratio", tomcatGC)
	set("hw.mysql.disk_util", "ratio", diskUtil)

	st := layerState{
		pending: t.PendingPeak, poolCap: crit.Capacity, poolQueue: queueDepth(crit, t.Measure) / max(instances, 1),
		cpuJobs: int(t.CPUActive[cpuName] + 0.5), testbed: t.cfg.Testbed, mix: t.cfg.Mix,
		arrivals: t.cfg.Arrivals,
	}
	if st.arrivals == nil {
		st.arrivals = openOverload.cfg.Arrivals
	}
	return st
}

// compareReps is how many repetitions each side of the obs comparison takes.
const compareReps = 3

// medianRep runs compareReps repetitions under env and returns their median
// wall time and the last repetition.
func medianRep(w *workload, seed uint64, env runEnv) (float64, *repOut, error) {
	var ws []float64
	var last *repOut
	for i := 0; i < compareReps; i++ {
		e := env
		e.rep = 1<<20 + 1 + i
		runtime.GC()
		o, err := w.rep(seed, &e, nil, -1)
		if err != nil {
			return 0, nil, err
		}
		ws, last = append(ws, o.wall.Seconds()), o
	}
	return median(ws), last, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stepStats returns the slowest one-simulated-second step of the window
// and how the window's last steps compare with its first ones: a ratio
// well above 1 is the livelock signature, host cost per simulated second
// growing while the simulation runs.
func stepStats(t *trialOut) (maxMS, growth float64) {
	window := t.StepMS[len(t.StepMS)-int(t.Measure):]
	for _, v := range window {
		maxMS = max(maxMS, v)
	}
	k := max(len(window)/4, 1)
	var first, last float64
	for i := 0; i < k; i++ {
		first += window[i]
		last += window[len(window)-1-i]
	}
	return maxMS, last / max(first, 1e-9)
}

// critical returns the workload's critical pool summed over the servers of
// its tier, and the number of those servers.
func critical(w *workload, t *trialOut) (resource.PoolStats, int) {
	servers := t.tiers()[w.critTier]
	var sum resource.PoolStats
	var waitNS float64
	for i := range servers {
		p := servers[i].Pool(w.critPool)
		if p == nil {
			continue
		}
		sum.Capacity = p.Capacity
		sum.Grants += p.Grants
		sum.Waited += p.Waited
		waitNS += float64(p.MeanWait) * float64(p.Grants)
	}
	if sum.Grants > 0 {
		sum.MeanWait = time.Duration(waitNS / float64(sum.Grants))
	}
	return sum, len(servers)
}

// busiestCPU returns the name and utilization of the most utilized server.
func busiestCPU(t *trialOut) (string, float64) {
	var name string
	var util float64
	for _, s := range t.servers() {
		if s.CPUUtil > util {
			name, util = s.Name, s.CPUUtil
		}
	}
	return name, util
}

// queueDepth is the pool's mean queue length over the window by Little's
// law: waiting time accrued per second of window.
func queueDepth(p resource.PoolStats, windowS float64) int {
	if windowS <= 0 {
		return 0
	}
	return int(float64(p.Grants)*p.MeanWait.Seconds()/windowS + 0.5)
}

// tiers maps each tier name to its servers' statistics.
func (o *trialOut) tiers() map[string][]experiment.ServerStats {
	return map[string][]experiment.ServerStats{"apache": o.Apache, "tomcat": o.Tomcat, "cjdbc": o.CJDBC, "mysql": o.MySQL}
}
