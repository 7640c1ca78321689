package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// Small versions of the three workloads: same code paths, short windows.
func smallClosed() trialSpec {
	s := closedPaper
	s.cfg.Users, s.cfg.RampUp, s.cfg.Measure, s.floor = 1200, 10*time.Second, 10*time.Second, 50
	return s
}

func smallOpen() trialSpec {
	s := openOverload
	s.cfg.Arrivals, s.cfg.RampUp, s.cfg.Measure, s.floor = trace.Poisson(2000), 5*time.Second, 5*time.Second, 50
	return s
}

func smallCampaign() campaignSpec {
	s := campaignRW
	s.base.RampUp, s.base.Measure, s.conns = 20*time.Second, 10*time.Second, []int{10, 200}
	return s
}

func smallWorkloads() []workload {
	ws := append([]workload(nil), workloads...)
	ws[0].rep, ws[1].rep, ws[2].rep = singleTrial(smallClosed()), singleTrial(smallOpen()), campaign(smallCampaign())
	return ws
}

// TestSmokeWorkloads runs each small workload once untraced and once
// traced: every gate passes and the traced run reports every per-layer
// metric named in BENCHMARK.json, with CPU-profile shares summing to 1.
func TestSmokeWorkloads(t *testing.T) {
	bench := readBenchmarkJSON(t)
	for _, w := range smallWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var log bytes.Buffer
				res, err := measure(&w, 3, time.Millisecond, traced, t.TempDir(), &log)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < minReps {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := bench.EndToEnd
				if traced {
					want = bench.PerLayer
				}
				if got := sortedKeys(res.Metrics); !equal(got, names(want)) {
					t.Errorf("traced=%v: metrics %v, BENCHMARK.json names %v", traced, got, names(want))
				}
				for _, m := range want {
					if got := res.Metrics[m.Name].Unit; got != m.Unit {
						t.Errorf("%s: unit %q, BENCHMARK.json %q", m.Name, got, m.Unit)
					}
				}
				if traced {
					sum := 0.0
					for name, m := range res.Metrics {
						if strings.HasPrefix(name, "prof.") && name != "prof.cpu_s" {
							sum += m.Value
						}
					}
					if math.Abs(sum-1) > 1e-9 {
						t.Errorf("prof.* shares sum to %v", sum)
					}
				}
			}
		})
	}
}

type benchMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

type benchJSON struct {
	Command   []string
	Paths     []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []benchMetric `json:"end_to_end"`
	PerLayer  []benchMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var v benchJSON
	if err := json.Unmarshal(b, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestBenchmarkJSONWorkloads checks BENCHMARK.json names exactly the
// workloads this command runs, with the reasons given here.
func TestBenchmarkJSONWorkloads(t *testing.T) {
	bench := readBenchmarkJSON(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, command has %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, m := range bench.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestRunTrialMatchesExperimentRun checks the stepping harness simulates
// exactly what experiment.Run does for the same configuration.
func TestRunTrialMatchesExperimentRun(t *testing.T) {
	cfg := experiment.RunConfig{
		Testbed: testbed.Options{Hardware: paperHW, Soft: paperSoft, Seed: 5},
		Users:   1500, RampUp: 10 * time.Second, Measure: 10 * time.Second,
	}
	want, err := experiment.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runTrial(trialSpec{cfg: cfg}, false, nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	if digestOf(got.servers()) != digestOf(want.Servers()) {
		t.Error("server statistics differ from experiment.Run")
	}
	if got.SLA.Total() != want.SLA.Total() || got.SLA.Goodput(slaBound) != want.Goodput(slaBound) {
		t.Errorf("completions %d goodput %v, experiment.Run %d %v",
			got.SLA.Total(), got.SLA.Goodput(slaBound), want.SLA.Total(), want.Goodput(slaBound))
	}
}

// goodTrial is a trial that passes every single-trial gate.
func goodTrial() *trialOut {
	return &trialOut{
		Measure: 10,
		Window:  windowCounts{Issued: 9000, OK: 8000, Good: 8000},
		Run: runCounts{Issued: 10000, Completed: 9500, SeenOK: 9500, SeenFailed: 0,
			InFlight: 500, InFlightMax: 600},
	}
}

func TestTrialGateTrips(t *testing.T) {
	gate := trialGate{minRate: 300, maxInFlight: 1000}
	if bad := gate.check(goodTrial()); len(bad) != 0 {
		t.Fatalf("clean trial tripped: %v", bad)
	}
	plants := map[string]func(*trialOut){
		"audit":        func(o *trialOut) { o.Audit = []string{"pool leaked a unit"} },
		"conservation": func(o *trialOut) { o.Run.Issued++ },
		"counters":     func(o *trialOut) { o.Run.Completed-- },
		"liveness":     func(o *trialOut) { o.Window.OK, o.Window.Good = 0, 0 },
		"in flight":    func(o *trialOut) { o.Run.InFlightMax = 1001 },
	}
	for name, plant := range plants {
		o := goodTrial()
		plant(o)
		if bad := gate.check(o); len(bad) == 0 {
			t.Errorf("%s: planted violation not caught", name)
		}
	}
}

// point is an allocation-sweep point whose single trial answered n
// requests in 10 s, good of them within the SLA.
func point(conns int, n, good int) experiment.AllocPoint {
	c := sla.NewCollector(sla.StandardThresholds)
	for i := 0; i < n; i++ {
		rt := time.Second
		if i >= good {
			rt = 3 * time.Second
		}
		c.Observe(rt)
	}
	c.SetElapsed(10 * time.Second)
	soft := testbed.SoftAlloc{WebThreads: 400, AppThreads: 200, AppConns: conns}
	r := &experiment.Result{Config: experiment.RunConfig{Measure: 10 * time.Second}, SLA: c}
	return experiment.AllocPoint{Soft: soft, Curve: &experiment.Curve{Results: []*experiment.Result{r}}}
}

func TestCampaignGateTrips(t *testing.T) {
	clean := []experiment.AllocPoint{point(10, 7000, 7000), point(200, 6000, 0)}
	if bad := checkCampaign(clean, 300); len(bad) != 0 {
		t.Fatalf("clean campaign tripped: %v", bad)
	}
	if bad := checkCampaign([]experiment.AllocPoint{point(10, 6000, 5000), point(200, 7000, 7000)}, 300); len(bad) == 0 {
		t.Error("Fig. 5 violation (larger pool wins) not caught")
	}
	if bad := checkCampaign([]experiment.AllocPoint{point(10, 0, 0), point(200, 0, 0)}, 300); len(bad) == 0 {
		t.Error("zero-completion campaign not caught")
	}
}

func TestRepeatGateTrips(t *testing.T) {
	reps := []*repOut{{digest: "a", goodput: 1}, {digest: "a", goodput: 1}}
	if bad := checkRepeat(reps); len(bad) != 0 {
		t.Fatalf("identical repetitions tripped: %v", bad)
	}
	reps[1].digest = "b"
	if bad := checkRepeat(reps); len(bad) != 1 {
		t.Errorf("perturbed digest: %v", bad)
	}
	reps[1].digest, reps[1].goodput = "a", 2
	if bad := checkRepeat(reps); len(bad) != 1 {
		t.Errorf("perturbed goodput: %v", bad)
	}
}

func TestSelfTimes(t *testing.T) {
	list := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "c", Start: 15, End: 20, Parent: 1},
	}
	got := selfTimes(list)
	want := map[string]time.Duration{"root": 50, "a": 25, "b": 30, "c": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: self %d, want %d", k, got[k], v)
		}
	}
}

var spinSink float64

func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			spinSink += math.Sqrt(float64(i))
		}
	}
}

// TestProfShares profiles a busy loop of this package and checks the
// decoder attributes it here, with the shares summing to 1.
func TestProfShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, cpu, err := profShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if cpu == 0 {
		t.Skip("no CPU samples")
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["prof.perfbench"] < 0.5 {
		t.Errorf("busy loop attributed %v to prof.perfbench: %v", shares["prof.perfbench"], shares)
	}
	if _, _, err := profShares([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-workload", "closed-paper", "-trace", "2"}, {"-seconds"}} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func sortedKeys(m map[string]metric) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func names(ms []benchMetric) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
