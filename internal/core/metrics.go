package core

import (
	"fmt"
	"math"
)

// Energy/performance trade-off metrics (§VII cites Gonzalez &
// Horowitz's energy-delay product and Martin et al.'s ET² as the
// standard ways to weigh a cap's energy savings against its slowdown).

// Tradeoff is one (energy, runtime) operating point.
type Tradeoff struct {
	EnergyJ  float64
	RuntimeS float64
}

// Validate checks the point.
func (t Tradeoff) Validate() error {
	if t.EnergyJ <= 0 || t.RuntimeS <= 0 {
		return fmt.Errorf("core: degenerate trade-off point %+v", t)
	}
	return nil
}

// EDP returns the energy-delay product (J·s).
func (t Tradeoff) EDP() float64 { return t.EnergyJ * t.RuntimeS }

// TradeoffOf extracts the point from a measured profile.
func TradeoffOf(jp JobProfile) Tradeoff {
	return Tradeoff{EnergyJ: jp.EnergyJ, RuntimeS: jp.Runtime}
}

// BestCapByEDP returns the index of the cap point minimizing EDP in a
// cap response (an energy-aware operator's pick), or an error when the
// response is empty or degenerate.
func BestCapByEDP(cr CapResponse) (int, error) {
	if len(cr.Points) == 0 {
		return 0, fmt.Errorf("core: empty cap response")
	}
	best, bestEDP := -1, math.Inf(1)
	for i, p := range cr.Points {
		t := Tradeoff{EnergyJ: p.EnergyJ, RuntimeS: p.Runtime}
		if t.Validate() != nil {
			continue
		}
		if edp := t.EDP(); edp < bestEDP {
			best, bestEDP = i, edp
		}
	}
	if best < 0 {
		return 0, fmt.Errorf("core: no valid points in cap response")
	}
	return best, nil
}
