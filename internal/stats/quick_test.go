package stats

// Property-based tests on the statistical primitives.

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"adhocnet/internal/xrand"
)

func randomSample(seed uint64, maxN int) []float64 {
	rng := xrand.New(seed)
	n := 1 + rng.Intn(maxN)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*10 + 5
	}
	return xs
}

func TestPropertyMergeMatchesConcatenation(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		a := randomSample(seedA, 60)
		b := randomSample(seedB, 60)
		var accA, accB, whole Accumulator
		for _, x := range a {
			accA.Add(x)
			whole.Add(x)
		}
		for _, x := range b {
			accB.Add(x)
			whole.Add(x)
		}
		accA.Merge(&accB)
		return accA.N() == whole.N() &&
			math.Abs(accA.Mean()-whole.Mean()) < 1e-9 &&
			math.Abs(accA.Variance()-whole.Variance()) < 1e-6 &&
			accA.Min() == whole.Min() && accA.Max() == whole.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuantileMonotoneInQ(t *testing.T) {
	f := func(seed uint64) bool {
		xs := randomSample(seed, 50)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := QuantileSorted(sorted, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyQuantileWithinSampleRange(t *testing.T) {
	f := func(seed uint64, qRaw uint16) bool {
		xs := randomSample(seed, 50)
		q := float64(qRaw) / 65535
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		v := QuantileSorted(sorted, q)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		return v >= lo-1e-12 && v <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyECDFMonotoneAndBounded(t *testing.T) {
	f := func(seed uint64) bool {
		xs := randomSample(seed, 50)
		sort.Float64s(xs)
		prev := 0.0
		for x := -40.0; x <= 60; x += 2.3 {
			v := ECDF(xs, x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return ECDF(xs, math.Inf(1)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyVarianceNonNegative(t *testing.T) {
	f := func(seed uint64) bool {
		var acc Accumulator
		for _, x := range randomSample(seed, 80) {
			acc.Add(x)
		}
		return acc.Variance() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLogBinomialSymmetry(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw) % 200
		k := 0
		if n > 0 {
			k = int(kRaw) % (n + 1)
		}
		a := LogBinomial(n, k)
		b := LogBinomial(n, n-k)
		return math.Abs(a-b) < 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPascalRule(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) in log space.
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw)%150 + 2
		k := int(kRaw)%(n-1) + 1
		lhs := math.Exp(LogBinomial(n, k))
		rhs := math.Exp(LogBinomial(n-1, k-1)) + math.Exp(LogBinomial(n-1, k))
		return math.Abs(lhs-rhs) < 1e-6*(1+rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
