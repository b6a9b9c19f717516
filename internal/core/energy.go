package core

import "math"

// RadioEnergy models the transmit-power law the paper's energy argument
// rests on: the power required to reach range r is proportional to r^Alpha,
// with Alpha = 2 in free space and up to 4 or more in cluttered environments
// ("transmitting power is proportional to the square (or, depending on
// environmental conditions, to a higher power) of the transmitting range").
type RadioEnergy struct {
	// Alpha is the path-loss exponent; typical values lie in [2, 4].
	Alpha float64
}

// DefaultRadioEnergy is the free-space model (Alpha = 2).
var DefaultRadioEnergy = RadioEnergy{Alpha: 2}

// PowerRatio returns the transmit-power ratio of operating at range r
// relative to range base: (r/base)^Alpha. It returns NaN for a non-positive
// base.
func (e RadioEnergy) PowerRatio(r, base float64) float64 {
	if base <= 0 {
		return math.NaN()
	}
	return math.Pow(r/base, e.Alpha)
}

// SavingsFraction returns the fractional transmit-power saving of operating
// at the reduced range instead of the base range: 1 - (reduced/base)^Alpha.
// A reduced range of 0.6*base with Alpha = 2 saves 64% of the power.
func (e RadioEnergy) SavingsFraction(reduced, base float64) float64 {
	return 1 - e.PowerRatio(reduced, base)
}
