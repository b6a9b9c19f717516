package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"adhocnet/internal/xrand"
)

func TestAccumulatorKnownValues(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance is 4; sample variance = 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
	if !math.IsInf(a.Min(), 1) || !math.IsInf(a.Max(), -1) {
		t.Fatal("empty accumulator Min/Max should be +/-Inf")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3)
	if a.Mean() != 3 || a.Variance() != 0 || a.Min() != 3 || a.Max() != 3 {
		t.Fatalf("single observation: %v", a.String())
	}
}

func TestAccumulatorMergeMatchesSequential(t *testing.T) {
	rng := xrand.New(1)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 7
	}
	var whole Accumulator
	for _, x := range xs {
		whole.Add(x)
	}
	var left, right Accumulator
	for _, x := range xs[:400] {
		left.Add(x)
	}
	for _, x := range xs[400:] {
		right.Add(x)
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", left.N(), whole.N())
	}
	if math.Abs(left.Mean()-whole.Mean()) > 1e-9 {
		t.Fatalf("merged mean %v != %v", left.Mean(), whole.Mean())
	}
	if math.Abs(left.Variance()-whole.Variance()) > 1e-9 {
		t.Fatalf("merged variance %v != %v", left.Variance(), whole.Variance())
	}
	if left.Min() != whole.Min() || left.Max() != whole.Max() {
		t.Fatal("merged min/max wrong")
	}
}

func TestAccumulatorMergeEmptyCases(t *testing.T) {
	var a, b Accumulator
	a.Merge(&b) // empty into empty
	if a.N() != 0 {
		t.Fatal("merge of empties not empty")
	}
	b.Add(5)
	a.Merge(&b) // non-empty into empty
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge into empty wrong")
	}
	var c Accumulator
	a.Merge(&c) // empty into non-empty
	if a.N() != 1 || a.Mean() != 5 {
		t.Fatal("merge of empty changed accumulator")
	}
}

func TestQuantile(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		q, want float64
	}{
		{0, 1},
		{1, 5},
		{0.5, 3},
		{0.25, 2},
		{0.1, 1.4},
		{-0.5, 1}, // clamped
		{1.5, 5},  // clamped
	}
	for _, c := range cases {
		if got := QuantileSorted(sample, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("QuantileSorted(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(QuantileSorted(nil, 0.5)) {
		t.Error("QuantileSorted of empty sample should be NaN")
	}
}

func TestQuantileSingleElement(t *testing.T) {
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		if got := QuantileSorted([]float64{7}, q); got != 7 {
			t.Errorf("QuantileSorted(single, %v) = %v", q, got)
		}
	}
}

func TestECDF(t *testing.T) {
	sorted := []float64{1, 2, 2, 3}
	cases := []struct {
		x, want float64
	}{
		{0.5, 0},
		{1, 0.25},
		{2, 0.75},
		{2.5, 0.75},
		{3, 1},
		{10, 1},
	}
	for _, c := range cases {
		if got := ECDF(sorted, c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("ECDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if !math.IsNaN(ECDF(nil, 1)) {
		t.Error("ECDF of empty sample should be NaN")
	}
}

func TestQuantileECDFRoundTripProperty(t *testing.T) {
	// For any sample and q, ECDF(QuantileSorted(q)) >= q (within interpolation).
	rng := xrand.New(3)
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 100
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		q := rng.Float64()
		v := QuantileSorted(sorted, q)
		return ECDF(sorted, v) >= q-1.0/float64(n)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormalCDF(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{3, 0.9986501019683699},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestPoissonPMF(t *testing.T) {
	// lambda = 2: P(0) = e^-2, P(1) = 2e^-2, P(2) = 2e^-2.
	e2 := math.Exp(-2)
	cases := []struct {
		k    int
		want float64
	}{
		{0, e2},
		{1, 2 * e2},
		{2, 2 * e2},
		{-1, 0},
	}
	for _, c := range cases {
		if got := PoissonPMF(2, c.k); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PoissonPMF(2,%d) = %v, want %v", c.k, got, c.want)
		}
	}
	if PoissonPMF(0, 0) != 1 || PoissonPMF(0, 3) != 0 {
		t.Error("PoissonPMF with lambda=0 wrong")
	}
}

func TestPoissonPMFSumsToOne(t *testing.T) {
	for _, lambda := range []float64{0.1, 1, 5, 50, 500} {
		sum := 0.0
		limit := int(lambda + 20*math.Sqrt(lambda) + 20)
		for k := 0; k <= limit; k++ {
			sum += PoissonPMF(lambda, k)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("lambda=%v: pmf sums to %v", lambda, sum)
		}
	}
}

func TestLogFactorial(t *testing.T) {
	// Exact small values.
	exact := []float64{1, 1, 2, 6, 24, 120, 720}
	for n, f := range exact {
		if got := LogFactorial(n); math.Abs(got-math.Log(f)) > 1e-12 {
			t.Errorf("LogFactorial(%d) = %v, want %v", n, got, math.Log(f))
		}
	}
	// Large value via Stirling must be continuous with the table.
	a := LogFactorial(255)
	b := LogFactorial(256) // first Stirling value
	if math.Abs(b-a-math.Log(256)) > 1e-9 {
		t.Errorf("LogFactorial table/Stirling mismatch: %v vs %v", b-a, math.Log(256))
	}
	if !math.IsNaN(LogFactorial(-1)) {
		t.Error("LogFactorial(-1) should be NaN")
	}
}

func TestLogBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10},
		{10, 0, 1},
		{10, 10, 1},
		{52, 5, 2598960},
	}
	for _, c := range cases {
		if got := math.Exp(LogBinomial(c.n, c.k)); math.Abs(got-c.want)/c.want > 1e-9 {
			t.Errorf("C(%d,%d) = %v, want %v", c.n, c.k, got, c.want)
		}
	}
	if !math.IsInf(LogBinomial(3, 5), -1) || !math.IsInf(LogBinomial(3, -1), -1) {
		t.Error("out-of-range binomial should be -Inf")
	}
}

func BenchmarkAccumulatorAdd(b *testing.B) {
	var a Accumulator
	for i := 0; i < b.N; i++ {
		a.Add(float64(i))
	}
}
