package sla

import (
	"fmt"
	"sort"
	"time"
)

// RevenueTier is one band of a tiered revenue model: requests answered
// within Bound earn Earning.
type RevenueTier struct {
	Bound   time.Duration
	Earning float64
}

// RevenueModel is the generalized SLA revenue model the paper sketches in
// §II-B (following Malkowski et al., CloudXplor): earnings are graded by
// response-time band and violations beyond the last band pay a penalty.
// The paper's simplified single-threshold model is the special case of one
// tier.
type RevenueModel struct {
	// Tiers must have strictly increasing bounds; a request's earning is
	// that of the first tier whose bound it meets.
	Tiers []RevenueTier
	// Penalty is charged per request slower than every tier's bound.
	Penalty float64
}

// SimpleModel returns the paper's simplified model: earn `earning` within
// the threshold, pay `penalty` beyond it.
func SimpleModel(threshold time.Duration, earning, penalty float64) RevenueModel {
	return RevenueModel{
		Tiers:   []RevenueTier{{Bound: threshold, Earning: earning}},
		Penalty: penalty,
	}
}

// EcommerceModel returns a graded model in the spirit of the Aberdeen
// report the paper cites (users abandon beyond a few seconds): fast pages
// earn full price, tolerable pages earn less, slow pages pay.
func EcommerceModel() RevenueModel {
	return RevenueModel{
		Tiers: []RevenueTier{
			{Bound: 500 * time.Millisecond, Earning: 1.0},
			{Bound: time.Second, Earning: 0.8},
			{Bound: 2 * time.Second, Earning: 0.5},
		},
		Penalty: 1.0,
	}
}

// Validate checks the model is well-formed.
func (m RevenueModel) Validate() error {
	if len(m.Tiers) == 0 {
		return fmt.Errorf("sla: revenue model needs at least one tier")
	}
	for i := 1; i < len(m.Tiers); i++ {
		if m.Tiers[i].Bound <= m.Tiers[i-1].Bound {
			return fmt.Errorf("sla: revenue tier bounds must increase (%v then %v)",
				m.Tiers[i-1].Bound, m.Tiers[i].Bound)
		}
	}
	return nil
}

// Rate returns the earning (or negative penalty) for one request with the
// given response time.
func (m RevenueModel) Rate(rt time.Duration) float64 {
	i := sort.Search(len(m.Tiers), func(i int) bool { return rt <= m.Tiers[i].Bound })
	if i < len(m.Tiers) {
		return m.Tiers[i].Earning
	}
	return -m.Penalty
}

// EvaluateRevenue computes the provider's total revenue over the collected
// requests under the model.
func (c *Collector) EvaluateRevenue(m RevenueModel) (float64, error) {
	if err := m.Validate(); err != nil {
		return 0, err
	}
	// The response-time sample is stored in seconds.
	total := 0.0
	for _, rtSec := range c.ResponseTimes().Values() {
		total += m.Rate(time.Duration(rtSec * float64(time.Second)))
	}
	return total, nil
}
