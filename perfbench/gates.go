package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/sla"
)

// liveFloor is the workloads' completion floor, in window completions per
// simulated second; their configurations complete about 700.
const liveFloor = 300

// trialGate holds the liveness limits a single trial must meet.
type trialGate struct {
	// minRate is the floor on window completions per simulated second: a
	// run that stops completing (the front-door livelock) fails instead of
	// being timed.
	minRate float64
	// maxInFlight bounds the requests in flight at any sampled second.
	maxInFlight int
}

// liveness returns the limits for a single-trial workload: the completion
// floor, and at most every user (closed loop) or one deadline's worth of
// arrivals (open loop) in flight.
func liveness(spec trialSpec) trialGate {
	g := trialGate{minRate: spec.floor, maxInFlight: spec.cfg.Users}
	if a := spec.cfg.Arrivals; a != nil {
		g.maxInFlight = int(a.MaxRate() * spec.cfg.Deadline.Seconds())
	}
	return g
}

// checkRepeat returns a failure for every repetition whose simulated
// outputs differ from the first one's: one seed must replay exactly.
func checkRepeat(reps []*repOut) []string {
	var bad []string
	for i, o := range reps[1:] {
		if o.digest != reps[0].digest || o.goodput != reps[0].goodput ||
			o.failFrac != reps[0].failFrac || o.goodFrac != reps[0].goodFrac {
			bad = append(bad, fmt.Sprintf("determinism: repetition %d sim_digest %s, first %s", i+1, o.digest, reps[0].digest))
		}
	}
	return bad
}

// check returns every gate the trial violates.
func (g trialGate) check(t *trialOut) []string {
	var bad []string
	for _, a := range t.Audit {
		bad = append(bad, "audit: "+a)
	}
	r := t.Run
	if r.InFlight < 0 || r.Issued != r.SeenOK+r.SeenFailed+uint64(r.InFlight) {
		bad = append(bad, fmt.Sprintf("conservation: issued %d != completed %d + failed/shed %d + in flight %d",
			r.Issued, r.SeenOK, r.SeenFailed, r.InFlight))
	}
	if r.SeenOK != r.Completed || r.SeenFailed != r.Failed+r.Shed {
		bad = append(bad, fmt.Sprintf("conservation: collector saw %d ok / %d failed, workload counted %d / %d+%d",
			r.SeenOK, r.SeenFailed, r.Completed, r.Failed, r.Shed))
	}
	if rate := float64(t.Window.OK) / t.Measure; rate < g.minRate {
		bad = append(bad, fmt.Sprintf("liveness: %.1f completions/s in the window, floor %.0f", rate, g.minRate))
	}
	if r.InFlightMax > g.maxInFlight {
		bad = append(bad, fmt.Sprintf("liveness: %d requests in flight, bound %d", r.InFlightMax, g.maxInFlight))
	}
	return bad
}

// checkCampaign returns every gate the campaign violates: a completion
// floor on its best trial and the Fig. 5 shape — the smallest DB
// connection pool has the highest goodput.
func checkCampaign(points []experiment.AllocPoint, floor float64) []string {
	var bad []string
	best := -1
	var bestGP float64
	for i, p := range points {
		r := p.Curve.Results[0]
		if r.SLA.Total() < uint64(r.Goodput(slaBound)*r.Config.Measure.Seconds()+0.5) {
			bad = append(bad, fmt.Sprintf("conservation: %s reports more good than completed responses", p.Soft))
		}
		if gp := r.Goodput(slaBound); best < 0 || gp > bestGP {
			best, bestGP = i, gp
		}
	}
	if rate := points[best].Curve.Results[0].Throughput(); rate < floor {
		bad = append(bad, fmt.Sprintf("liveness: best trial completes %.1f req/s, floor %.0f", rate, floor))
	}
	if best != 0 {
		bad = append(bad, fmt.Sprintf("Fig. 5: %s has the highest goodput, want the smallest pool %s",
			points[best].Soft, points[0].Soft))
	}
	return bad
}

// digestOf hashes v's JSON encoding. Every simulated statistic reported
// goes through it, so two runs of one seed must agree on it exactly.
func digestOf(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: digest: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// modelDigest hashes a trial's statistics of the modelled system, leaving
// out the engine's own counts (events, resident processes and events).
func modelDigest(t *trialOut) string {
	return digestOf(struct {
		W windowCounts
		S any
		V []experiment.ServerStats
	}{t.Window, t.SLA, t.servers()})
}

// trialDigest is the simulated content of one campaign trial.
type trialDigest struct {
	Soft      string                   `json:"soft"`
	SLA       *sla.Collector           `json:"sla"`
	Errors    uint64                   `json:"errors"`
	Shed      uint64                   `json:"shed"`
	Late      uint64                   `json:"late"`
	Abandoned uint64                   `json:"abandoned"`
	Servers   []experiment.ServerStats `json:"servers"`
}

func campaignDigest(points []experiment.AllocPoint) []trialDigest {
	var out []trialDigest
	for _, p := range points {
		r := p.Curve.Results[0]
		out = append(out, trialDigest{Soft: p.Soft.String(), SLA: r.SLA, Errors: r.Errors,
			Shed: r.Shed, Late: r.Late, Abandoned: r.Abandoned, Servers: r.Servers()})
	}
	return out
}
