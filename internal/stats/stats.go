// Package stats provides the small statistical toolkit the simulation
// harness needs: streaming moment accumulators (Welford), empirical
// quantiles and CDFs, and the normal and Poisson distribution functions
// the theory tables use.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes count, mean, variance, min and max of a stream of
// observations in one pass using Welford's numerically stable recurrence.
// The zero value is an empty accumulator ready for use.
type Accumulator struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Merge folds the contents of b into a (parallel-reduction step), using the
// Chan et al. pairwise update.
func (a *Accumulator) Merge(b *Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = *b
		return
	}
	delta := b.mean - a.mean
	total := a.n + b.n
	a.m2 += b.m2 + delta*delta*float64(a.n)*float64(b.n)/float64(total)
	a.mean += delta * float64(b.n) / float64(total)
	if b.min < a.min {
		a.min = b.min
	}
	if b.max > a.max {
		a.max = b.max
	}
	a.n = total
}

// State returns the accumulator's raw internal state (count, running mean,
// sum of squared deviations, min, max). Together with Restore it lets
// checkpointing round-trip an accumulator bit-identically, which plain
// re-observation could not (Welford's recurrence is order-sensitive).
func (a *Accumulator) State() (n int64, mean, m2, min, max float64) {
	return a.n, a.mean, a.m2, a.min, a.max
}

// Restore overwrites the accumulator with raw state previously obtained
// from State.
func (a *Accumulator) Restore(n int64, mean, m2, min, max float64) {
	*a = Accumulator{n: n, mean: mean, m2: m2, min: min, max: max}
}

// N returns the number of observations.
func (a *Accumulator) N() int64 { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for fewer than two
// observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Min returns the smallest observation (+Inf when empty, so that Min is
// always a safe lower bound).
func (a *Accumulator) Min() float64 {
	if a.n == 0 {
		return math.Inf(1)
	}
	return a.min
}

// Max returns the largest observation (-Inf when empty).
func (a *Accumulator) Max() float64 {
	if a.n == 0 {
		return math.Inf(-1)
	}
	return a.max
}

// String summarizes the accumulator for logs.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.6g sd=%.6g min=%.6g max=%.6g",
		a.n, a.Mean(), a.StdDev(), a.Min(), a.Max())
}

// QuantileSorted returns the q-quantile (0 <= q <= 1) of an ascending-sorted
// sample using linear interpolation between order statistics (Hyndman-Fan
// type 7, the common default). It returns NaN for an empty sample and
// clamps q into [0,1].
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	frac := h - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// ECDF returns the empirical CDF value at x for an ascending-sorted sample:
// the fraction of observations <= x.
func ECDF(sorted []float64, x float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	// Index of first element > x.
	idx := sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(sorted))
}

// NormalCDF returns the standard normal cumulative distribution function.
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// PoissonPMF returns P(X = k) for X ~ Poisson(lambda), evaluated in log
// space for stability at large lambda or k.
func PoissonPMF(lambda float64, k int) float64 {
	if k < 0 || lambda < 0 {
		return 0
	}
	if lambda == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	logp := float64(k)*math.Log(lambda) - lambda - LogFactorial(k)
	return math.Exp(logp)
}

// LogFactorial returns log(n!) using exact accumulation for small n and
// Stirling's series beyond, accurate to ~1e-12 relative error.
func LogFactorial(n int) float64 {
	if n < 0 {
		return math.NaN()
	}
	if n < len(logFactTable) {
		return logFactTable[n]
	}
	x := float64(n)
	// Stirling's series with three correction terms.
	return x*math.Log(x) - x + 0.5*math.Log(2*math.Pi*x) +
		1/(12*x) - 1/(360*x*x*x)
}

// logFactTable caches log(k!) for k < 256.
var logFactTable = func() []float64 {
	t := make([]float64, 256)
	acc := 0.0
	for i := 2; i < len(t); i++ {
		acc += math.Log(float64(i))
		t[i] = acc
	}
	return t
}()

// LogBinomial returns log C(n, k), or -Inf when the coefficient is zero.
func LogBinomial(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}
