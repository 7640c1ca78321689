// Command perfbench is the repository's benchmark: it runs one named
// workload of the simulator through the library (testbed, rubbos,
// experiment) for a fixed host-time budget, checks the simulated outputs,
// and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// adds one traced repetition, timing loops over each layer's public
// functions and a CPU profile, and the metrics are the per-layer ones.
// The workloads reproduce the paper's Fig. 2 saturation point and Fig. 5
// over-allocation campaign, plus an open-loop overload of the front door;
// README.md lists every metric and what it should move.
//
// Usage:
//
//	perfbench -workload closed-paper -seed 1 -seconds 30 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the seed a run uses without -seed; README.md also names a
// second seed checked to keep every workload live and the Fig. 5 shape.
const defaultSeed = 1

// minReps is the fewest timed repetitions a run makes, whatever its
// budget: enough for a median and for the repeat-digest gate.
const minReps = 3

// setup_s is timed on its own, in batches: a batch repeats the set-up
// back to back until the set-ups have taken setupBatch and yields their
// mean, so that cheap set-ups are not dominated by timer and collector
// noise. A run takes batches for setupBudget, and at least setupMinBatches.
const (
	setupBatch      = 5 * time.Millisecond
	setupBudget     = 2 * time.Second
	setupMinBatches = 15
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: closed-paper, open-overload or campaign-rw")
	seed := fs.Uint64("seed", defaultSeed, "simulation seed")
	seconds := fs.Float64("seconds", 10, "host seconds of timed repetitions")
	traced := fs.Int("trace", 0, "1 adds the traced repetition and reports per-layer metrics")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "perfbench"), "work directory for journals, spans and profiles")
	commit := fs.String("commit", "unknown", "commit of the sources, recorded with the host facts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		if err == nil {
			err = errors.New("need -seconds > 0 and -trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	host := collectHostFacts(w.name, *seed, *commit)
	hb, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hb)
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *workDir, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs timed repetitions of w until the budget is spent (at least
// minReps), checks every gate, and, when traced, adds the per-layer run.
func measure(w *workload, seed uint64, budget time.Duration, traced bool, workDir string, log io.Writer) (*result, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var setups []float64
	setupStart := time.Now()
	for len(setups) < setupMinBatches || time.Since(setupStart) < setupBudget {
		var sum time.Duration
		n := 0
		for sum < setupBatch {
			o, err := w.rep(seed, &runEnv{workDir: workDir, rep: -1 - n, setupOnly: true}, nil, -1)
			if err != nil {
				return nil, fmt.Errorf("%s set-up: %w", w.name, err)
			}
			sum += o.setup
			n++
		}
		setups = append(setups, sum.Seconds()/float64(n))
	}
	// A traced run needs only the untraced baseline for its comparisons;
	// the end-to-end figures come from untraced runs.
	if traced {
		budget = 0
	}
	var reps []*repOut
	start := time.Now()
	for i := 0; i < minReps || time.Since(start) < budget; i++ {
		runtime.GC() // each repetition starts from a collected heap
		o, err := w.rep(seed, &runEnv{workDir: workDir, rep: i}, nil, -1)
		if err != nil {
			return nil, fmt.Errorf("%s repetition %d: %w", w.name, i, err)
		}
		reps = append(reps, o)
		res.Attempted++
		if len(o.failures) > 0 {
			res.Failed++
		}
		for _, f := range o.failures {
			fmt.Fprintf(log, "GATE FAILED rep %d: %s\n", i, f)
		}
		fmt.Fprintf(log, "rep %d setup_s=%.4f wall_s=%.4f goodput_2s=%.2f good_frac=%.5f fail_frac=%.5f sim_digest=%s\n",
			i, o.setup.Seconds(), o.wall.Seconds(), o.goodput, o.goodFrac, o.failFrac, o.digest)
	}
	for _, f := range checkRepeat(reps) {
		fmt.Fprintf(log, "GATE FAILED %s\n", f)
		res.Correct = false
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	wall := median(walls(reps))
	if !traced {
		res.Metrics["wall_s"] = metric{wall, "s"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}
		res.Metrics["goodput_2s"] = metric{reps[0].goodput, "req/s"}
		res.Metrics["good_frac"] = metric{reps[0].goodFrac, "ratio"}
	} else {
		ok, err := traceRun(w, seed, workDir, reps[len(reps)-1], wall, res.Metrics, log)
		if err != nil {
			return nil, err
		}
		res.Attempted++
		if !ok {
			res.Failed++
			res.Correct = false
		}
	}
	q := quartiles(setups)
	fmt.Fprintf(log, "setup batches n=%d q1=%.6g median=%.6g q3=%.6g s\n", len(setups), q[0], q[1], q[2])
	fmt.Fprintf(log, "sim_digest %s\n", reps[0].digest)
	fmt.Fprintf(log, "fail_frac %.6f ratio\n", reps[0].failFrac)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(log, "metric %-36s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	return res, nil
}

// walls returns each repetition's wall time in seconds.
func walls(reps []*repOut) []float64 {
	out := make([]float64, len(reps))
	for i, o := range reps {
		out[i] = o.wall.Seconds()
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of a
// non-empty slice, by linear interpolation between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

// median returns the middle value (the mean of the two middle values for
// an even count) of a non-empty slice.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
