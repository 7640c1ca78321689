// Package sla implements the paper's simplified service-level-agreement
// model: a response-time threshold splits throughput into goodput (requests
// within the bound, which earn revenue) and badput (requests over the bound,
// which incur penalties). See paper §II-B.
package sla

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"github.com/softres/ntier/internal/metrics"
)

// StandardThresholds are the three SLA bounds the paper evaluates.
var StandardThresholds = []time.Duration{
	500 * time.Millisecond,
	1 * time.Second,
	2 * time.Second,
}

// RTBounds are the paper's Fig. 3(c) response-time histogram bucket bounds
// in seconds.
var RTBounds = []float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.5, 2.0}

// Collector accumulates per-request response times during a measurement
// window and reports throughput/goodput/badput per threshold.
type Collector struct {
	thresholds []time.Duration
	good       []uint64
	total      uint64
	shed       uint64
	late       uint64
	elapsed    time.Duration

	// rtNS holds the response times as integer nanoseconds, half the
	// memory of float64 seconds, until ResponseTimes is first called; an
	// entry of math.MaxUint32 stands for the next value in rtBig (4.29 s or
	// more). ResponseTimes moves them into rts, which then takes every
	// observation. The conversion to seconds is exact either way.
	rtNS  []uint32
	rtBig []time.Duration
	wide  bool
	rts   metrics.Sample
	hist  *metrics.Histogram
}

// NewCollector creates a collector for the given thresholds (typically
// StandardThresholds).
func NewCollector(thresholds []time.Duration) *Collector {
	return &Collector{
		thresholds: append([]time.Duration(nil), thresholds...),
		good:       make([]uint64, len(thresholds)),
		hist:       metrics.NewHistogram(RTBounds),
	}
}

// Observe records one completed request with response time rt.
func (c *Collector) Observe(rt time.Duration) {
	c.total++
	for i, th := range c.thresholds {
		if rt <= th {
			c.good[i]++
		}
	}
	switch {
	case c.wide:
		c.rts.Add(rt.Seconds())
	case rt >= 0 && rt < math.MaxUint32:
		c.rtNS = append(c.rtNS, uint32(rt))
	default:
		c.rtNS = append(c.rtNS, math.MaxUint32)
		c.rtBig = append(c.rtBig, rt)
	}
	c.hist.Add(rt.Seconds())
}

// narrowRTs returns the response times held as nanoseconds, in observation
// order, as a sample of seconds.
func (c *Collector) narrowRTs() metrics.Sample {
	var s metrics.Sample
	big := c.rtBig
	for _, ns := range c.rtNS {
		d := time.Duration(ns)
		if ns == math.MaxUint32 {
			d, big = big[0], big[1:]
		}
		s.Add(d.Seconds())
	}
	return s
}

// ObserveShed records one request rejected by load shedding (admission
// control or deadline fail-fast). Shed requests are not throughput: they
// never produced a page.
func (c *Collector) ObserveShed() { c.shed++ }

// ObserveLate records one completed response that blew its end-to-end
// deadline (the response still counts in Observe; Late is an overlay).
func (c *Collector) ObserveLate() { c.late++ }

// Shed returns the number of shed requests observed.
func (c *Collector) Shed() uint64 { return c.shed }

// Late returns the number of deadline-violating completions observed.
func (c *Collector) Late() uint64 { return c.late }

// SetElapsed records the measurement-window length used for rate
// computations.
func (c *Collector) SetElapsed(d time.Duration) { c.elapsed = d }

// Total returns the number of requests observed.
func (c *Collector) Total() uint64 { return c.total }

// Throughput returns overall requests per second.
func (c *Collector) Throughput() float64 {
	if c.elapsed <= 0 {
		return 0
	}
	return float64(c.total) / c.elapsed.Seconds()
}

// Goodput returns requests per second within the given threshold. The
// threshold must be one passed to NewCollector.
func (c *Collector) Goodput(th time.Duration) float64 {
	if c.elapsed <= 0 {
		return 0
	}
	for i, t := range c.thresholds {
		if t == th {
			return float64(c.good[i]) / c.elapsed.Seconds()
		}
	}
	panic(fmt.Sprintf("sla: threshold %v not collected", th))
}

// Badput returns Throughput minus Goodput for the threshold.
func (c *Collector) Badput(th time.Duration) float64 {
	return c.Throughput() - c.Goodput(th)
}

// SatisfactionRatio returns the fraction of requests within the threshold
// (the SLO satisfaction the intervention analysis watches), or 1 with no
// requests.
func (c *Collector) SatisfactionRatio(th time.Duration) float64 {
	if c.total == 0 {
		return 1
	}
	for i, t := range c.thresholds {
		if t == th {
			return float64(c.good[i]) / float64(c.total)
		}
	}
	panic(fmt.Sprintf("sla: threshold %v not collected", th))
}

// ResponseTimes returns the collected response-time sample (seconds).
func (c *Collector) ResponseTimes() *metrics.Sample {
	if !c.wide {
		c.rts, c.wide = c.narrowRTs(), true
		c.rtNS, c.rtBig = nil, nil
	}
	return &c.rts
}

// Histogram returns the Fig. 3(c)-style response-time distribution.
func (c *Collector) Histogram() *metrics.Histogram { return c.hist }

// collectorJSON mirrors Collector for the experiment journal. Durations
// serialize as integer nanoseconds and counters as integers, so a restored
// collector reports rates and ratios bit-identical to the original.
type collectorJSON struct {
	Thresholds []time.Duration    `json:"thresholds"`
	Good       []uint64           `json:"good"`
	Total      uint64             `json:"total"`
	Shed       uint64             `json:"shed,omitempty"`
	Late       uint64             `json:"late,omitempty"`
	Elapsed    time.Duration      `json:"elapsed"`
	RTs        *metrics.Sample    `json:"rts"`
	Hist       *metrics.Histogram `json:"hist,omitempty"`
}

// MarshalJSON serializes the collector's full observation state.
func (c *Collector) MarshalJSON() ([]byte, error) {
	rts := &c.rts
	if !c.wide {
		narrow := c.narrowRTs()
		rts = &narrow
	}
	return json.Marshal(collectorJSON{
		Thresholds: c.thresholds,
		Good:       c.good,
		Total:      c.total,
		Shed:       c.shed,
		Late:       c.late,
		Elapsed:    c.elapsed,
		RTs:        rts,
		Hist:       c.hist,
	})
}

// UnmarshalJSON restores a collector serialized with MarshalJSON.
func (c *Collector) UnmarshalJSON(data []byte) error {
	var v collectorJSON
	if err := json.Unmarshal(data, &v); err != nil {
		return err
	}
	if len(v.Good) != len(v.Thresholds) {
		return fmt.Errorf("sla: collector with %d thresholds and %d good counters", len(v.Thresholds), len(v.Good))
	}
	c.thresholds = v.Thresholds
	c.good = v.Good
	c.total = v.Total
	c.shed = v.Shed
	c.late = v.Late
	c.elapsed = v.Elapsed
	c.rts, c.wide = metrics.Sample{}, true
	c.rtNS, c.rtBig = nil, nil
	if v.RTs != nil {
		c.rts = *v.RTs
	}
	c.hist = v.Hist
	return nil
}

// Revenue computes provider revenue under a simple earning/penalty model:
// earn per good request, pay penalty per bad request (paper §II-B).
func (c *Collector) Revenue(th time.Duration, earning, penalty float64) float64 {
	if c.elapsed <= 0 {
		return 0
	}
	good := c.Goodput(th) * c.elapsed.Seconds()
	bad := float64(c.total) - good
	return good*earning - bad*penalty
}
