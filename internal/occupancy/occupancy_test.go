package occupancy

import (
	"math"
	"os"
	"testing"

	"adhocnet/internal/stats"
	"adhocnet/internal/xrand"
)

func TestEmptyCellsPMFTinyCases(t *testing.T) {
	// n=1, C=2: one ball leaves exactly one empty cell.
	pmf, err := EmptyCellsPMF(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pmf[1]-1) > 1e-15 || pmf[0] != 0 || pmf[2] != 0 {
		t.Fatalf("n=1,C=2 pmf = %v", pmf)
	}

	// n=2, C=2: both in same cell w.p. 1/2 (one empty), else zero empty.
	pmf, _ = EmptyCellsPMF(2, 2)
	if math.Abs(pmf[0]-0.5) > 1e-15 || math.Abs(pmf[1]-0.5) > 1e-15 {
		t.Fatalf("n=2,C=2 pmf = %v", pmf)
	}

	// n=0: all cells empty.
	pmf, _ = EmptyCellsPMF(0, 3)
	if pmf[3] != 1 || pmf[0] != 0 {
		t.Fatalf("n=0,C=3 pmf = %v", pmf)
	}

	// C=1: the single cell is always occupied for n>=1.
	pmf, _ = EmptyCellsPMF(5, 1)
	if pmf[0] != 1 || pmf[1] != 0 {
		t.Fatalf("n=5,C=1 pmf = %v", pmf)
	}
}

func TestEmptyCellsPMFValidation(t *testing.T) {
	if _, err := EmptyCellsPMF(-1, 3); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := EmptyCellsPMF(3, 0); err == nil {
		t.Error("zero cells should fail")
	}
	if _, err := EmptyCellsPMFInclusionExclusion(-1, 3); err == nil {
		t.Error("inclusion-exclusion negative n should fail")
	}
}

func TestPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct{ n, c int }{
		{1, 1}, {5, 3}, {10, 10}, {100, 20}, {20, 100}, {1000, 128}, {128, 1000},
	} {
		pmf, err := EmptyCellsPMF(tc.n, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range pmf {
			if p < 0 {
				t.Fatalf("n=%d C=%d: negative probability %v", tc.n, tc.c, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("n=%d C=%d: pmf sums to %v", tc.n, tc.c, sum)
		}
	}
}

func TestDPMatchesInclusionExclusionSmall(t *testing.T) {
	for _, tc := range []struct{ n, c int }{
		{1, 1}, {3, 3}, {5, 4}, {8, 8}, {12, 6}, {6, 12}, {20, 10},
		// Long runs whose one-occupied-cell entry, C^(1-n), is sub-normal,
		// so the DP's flush sets it to 0.
		{1030, 2}, {520, 4},
	} {
		dp, err := EmptyCellsPMF(tc.n, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		ie, err := EmptyCellsPMFInclusionExclusion(tc.n, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		for k := range dp {
			if math.Abs(dp[k]-ie[k]) > 1e-9 {
				t.Errorf("n=%d C=%d k=%d: DP %v != IE %v", tc.n, tc.c, k, dp[k], ie[k])
			}
		}
	}
}

// unflushedPMF is EmptyCellsPMF's dynamic program without its sub-normal
// flush.
func unflushedPMF(n, c int) []float64 {
	occ := make([]float64, c+1)
	occ[0] = 1
	maxM := 0
	for t := 0; t < n; t++ {
		if maxM < c {
			maxM++
		}
		for m := maxM; m >= 1; m-- {
			occ[m] = occ[m]*float64(m)/float64(c) + occ[m-1]*float64(c-m+1)/float64(c)
		}
		occ[0] = 0
	}
	pmf := make([]float64, c+1)
	for m := 0; m <= c; m++ {
		pmf[c-m] = occ[m]
	}
	return pmf
}

// TestEmptyCellsPMFFlushMovesOnlyTails pins EmptyCellsPMF's sub-normal
// flush against the unflushed DP over the (n, C) grid of the T1 experiment:
// every entry within 2^-1020, and bit for bit wherever the unflushed entry
// is at least 2^-900. The flush must change some entry, or it is not
// exercised. C = 4096 (the paper preset's largest) takes the unflushed DP
// about 10 s, so it runs only with ADHOCNET_PAPER=1.
func TestEmptyCellsPMFFlushMovesOnlyTails(t *testing.T) {
	cells := []int{256, 1024}
	if os.Getenv("ADHOCNET_PAPER") == "1" {
		cells = append(cells, 4096)
	}
	changed := 0
	for _, c := range cells {
		cf := float64(c)
		for _, n := range []int{
			int(math.Sqrt(cf)),
			int(math.Pow(cf, 0.75)),
			c,
			int(cf * math.Sqrt(math.Log(cf))),
			int(cf * math.Log(cf)),
		} {
			got, err := EmptyCellsPMF(n, c)
			if err != nil {
				t.Fatal(err)
			}
			want := unflushedPMF(n, c)
			for k := range want {
				if got[k] == want[k] {
					continue
				}
				changed++
				if math.Abs(got[k]-want[k]) > 0x1p-1020 || want[k] >= 0x1p-900 {
					t.Fatalf("n=%d C=%d k=%d: flushed %v, unflushed %v", n, c, k, got[k], want[k])
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("the flush changed no entry of the grid")
	}
}

func TestPMFMomentsMatchClosedForms(t *testing.T) {
	// The mean and variance of the DP distribution must match the exact
	// closed-form expressions quoted in the paper's Section 2.
	for _, tc := range []struct{ n, c int }{
		{5, 3}, {50, 20}, {200, 64}, {64, 200}, {500, 100},
	} {
		pmf, err := EmptyCellsPMF(tc.n, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		mean, second := 0.0, 0.0
		for k, p := range pmf {
			mean += float64(k) * p
			second += float64(k) * float64(k) * p
		}
		variance := second - mean*mean
		if wantMean := ExpectedEmpty(tc.n, tc.c); math.Abs(mean-wantMean) > 1e-8*(1+wantMean) {
			t.Errorf("n=%d C=%d: DP mean %v, closed form %v", tc.n, tc.c, mean, wantMean)
		}
		if wantVar := VarianceEmpty(tc.n, tc.c); math.Abs(variance-wantVar) > 1e-6*(1+wantVar) {
			t.Errorf("n=%d C=%d: DP variance %v, closed form %v", tc.n, tc.c, variance, wantVar)
		}
	}
}

func TestExpectedEmptyKnownValues(t *testing.T) {
	// E[mu(2,2)] = 2*(1/2)^2 = 0.5.
	if got := ExpectedEmpty(2, 2); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("E[mu(2,2)] = %v, want 0.5", got)
	}
	// n=0: all cells empty.
	if got := ExpectedEmpty(0, 7); got != 7 {
		t.Errorf("E[mu(0,7)] = %v, want 7", got)
	}
	if got := ExpectedEmpty(5, 0); got != 0 {
		t.Errorf("E with C=0 should be 0, got %v", got)
	}
}

func TestVarianceEmptyDegenerate(t *testing.T) {
	// C=1: mu is deterministic (0 for n>=1), variance 0.
	if got := VarianceEmpty(5, 1); got != 0 {
		t.Errorf("Var[mu(5,1)] = %v, want 0", got)
	}
	// n=0: mu = C deterministically.
	if got := VarianceEmpty(0, 5); got != 0 {
		t.Errorf("Var[mu(0,5)] = %v, want 0", got)
	}
}

func TestTheorem1Bound(t *testing.T) {
	// E[mu] <= C e^{-alpha} for every n, C.
	for _, c := range []int{2, 10, 100, 1000} {
		for _, n := range []int{0, 1, c / 2, c, 2 * c, 10 * c} {
			e := ExpectedEmpty(n, c)
			bound := ExpectedEmptyUpperBound(n, c)
			if e > bound*(1+1e-12) {
				t.Errorf("C=%d n=%d: E=%v exceeds bound %v", c, n, e, bound)
			}
		}
	}
}

func TestTheorem1AsymptoticAccuracy(t *testing.T) {
	// For large C at moderate alpha the asymptotic forms must approach the
	// exact values; error terms are O(e^-alpha (1+alpha)/C) * C ~ constant,
	// so relative error on E should shrink like 1/C.
	for _, c := range []int{100, 1000, 10000} {
		n := 2 * c // alpha = 2
		exact := ExpectedEmpty(n, c)
		approx := ExpectedEmptyAsymptotic(n, c)
		relErr := math.Abs(exact-approx) / exact
		if relErr > 10.0/float64(c) {
			t.Errorf("C=%d: E relative error %v too large", c, relErr)
		}
		ve := VarianceEmpty(n, c)
		va := VarianceEmptyAsymptotic(n, c)
		if math.Abs(ve-va)/ve > 50.0/float64(c) {
			t.Errorf("C=%d: Var relative error %v too large", c, math.Abs(ve-va)/ve)
		}
	}
}

func TestClassifyDomainCanonicalFamilies(t *testing.T) {
	for _, c := range []int{64, 256, 1024, 4096, 16384} {
		cf := float64(c)
		cases := []struct {
			n    int
			want Domain
		}{
			{int(math.Sqrt(cf)), DomainLeft},
			{int(math.Pow(cf, 0.75)), DomainLeftIntermediate},
			{c, DomainCentral},
			{int(cf * math.Sqrt(math.Log(cf))), DomainRightIntermediate},
			{int(cf * math.Log(cf)), DomainRight},
			{int(2 * cf * math.Log(cf)), DomainRight},
		}
		for _, tc := range cases {
			if got := ClassifyDomain(tc.n, c); got != tc.want {
				t.Errorf("C=%d n=%d: domain %v, want %v", c, tc.n, got, tc.want)
			}
		}
	}
}

func TestDomainString(t *testing.T) {
	want := map[Domain]string{
		DomainCentral:           "CD",
		DomainRight:             "RHD",
		DomainLeft:              "LHD",
		DomainRightIntermediate: "RHID",
		DomainLeftIntermediate:  "LHID",
	}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(d), d.String(), s)
		}
	}
	if Domain(99).String() == "" {
		t.Error("unknown domain should still produce a string")
	}
}

func TestLimitLawKinds(t *testing.T) {
	c := 4096
	// RHD: Poisson.
	n := int(float64(c) * math.Log(float64(c)))
	law := Limit(n, c)
	if law.Kind != LawPoisson {
		t.Errorf("RHD law = %v, want Poisson", law.Kind)
	}
	if math.Abs(law.Lambda-ExpectedEmpty(n, c)) > 1e-12 {
		t.Errorf("RHD lambda = %v, want E[mu] = %v", law.Lambda, ExpectedEmpty(n, c))
	}
	// CD: normal.
	law = Limit(c, c)
	if law.Kind != LawNormal {
		t.Errorf("CD law = %v, want normal", law.Kind)
	}
	// LHD: shifted Poisson.
	n = int(math.Sqrt(float64(c)))
	law = Limit(n, c)
	if law.Kind != LawShiftedPoisson {
		t.Errorf("LHD law = %v, want shifted Poisson", law.Kind)
	}
	if law.Shift != c-n {
		t.Errorf("LHD shift = %d, want %d", law.Shift, c-n)
	}
}

func TestLimitLawMatchesExactPMFInRHD(t *testing.T) {
	// In the right-hand domain the Poisson law should approximate the exact
	// distribution well (total variation distance small).
	c := 512
	n := int(float64(c) * math.Log(float64(c)))
	pmf, err := EmptyCellsPMF(n, c)
	if err != nil {
		t.Fatal(err)
	}
	law := Limit(n, c)
	tv := 0.0
	for k := 0; k <= c; k++ {
		tv += math.Abs(pmf[k] - law.PMF(k))
	}
	tv /= 2
	if tv > 0.02 {
		t.Errorf("RHD total variation distance %v too large", tv)
	}
}

func TestLimitLawMatchesExactPMFInCD(t *testing.T) {
	c := 1024
	n := c
	pmf, err := EmptyCellsPMF(n, c)
	if err != nil {
		t.Fatal(err)
	}
	law := Limit(n, c)
	tv := 0.0
	for k := 0; k <= c; k++ {
		tv += math.Abs(pmf[k] - law.PMF(k))
	}
	tv /= 2
	if tv > 0.05 {
		t.Errorf("CD total variation distance %v too large", tv)
	}
}

func TestLimitPMFNormalDegenerate(t *testing.T) {
	law := LimitLaw{Kind: LawNormal, Mean: 3, Std: 0}
	if law.PMF(3) != 1 || law.PMF(4) != 0 {
		t.Error("degenerate normal law should be a point mass")
	}
}

func TestSampleEmptyAgainstExactMoments(t *testing.T) {
	rng := xrand.New(42)
	n, c := 200, 64
	const draws = 20000
	mean, variance := SampleEmptyMany(rng, n, c, draws)
	wantMean := ExpectedEmpty(n, c)
	wantVar := VarianceEmpty(n, c)
	// 5-sigma tolerance on the sample mean.
	tol := 5 * math.Sqrt(wantVar/draws)
	if math.Abs(mean-wantMean) > tol {
		t.Errorf("sample mean %v vs exact %v (tol %v)", mean, wantMean, tol)
	}
	if math.Abs(variance-wantVar)/wantVar > 0.1 {
		t.Errorf("sample variance %v vs exact %v", variance, wantVar)
	}
}

func TestSampleEmptyDegenerate(t *testing.T) {
	rng := xrand.New(1)
	if got := sampleEmpty(rng, 0, make([]bool, 5)); got != 5 {
		t.Errorf("0 balls: %d empty, want 5", got)
	}
	if got := sampleEmpty(rng, 5, nil); got != 0 {
		t.Errorf("0 cells: %d empty, want 0", got)
	}
	if mean, variance := SampleEmptyMany(rng, 5, 0, 3); mean != 0 || variance != 0 {
		t.Errorf("0 cells: mean %v and variance %v, want 0 and 0", mean, variance)
	}
}

// TestSampleEmptyManyMatchesFreshDraws pins SampleEmptyMany, whose draws
// share one cleared scratch slice, to draws that each allocate their own
// cells, with the same RNG calls in the same order: the moments must be
// equal bit for bit.
func TestSampleEmptyManyMatchesFreshDraws(t *testing.T) {
	for _, tc := range []struct{ n, c, k int }{{200, 64, 500}, {10, 1000, 50}, {1000, 3, 20}, {0, 7, 4}} {
		rng := xrand.New(9)
		var acc stats.Accumulator
		for range tc.k {
			occupied := make([]bool, tc.c)
			distinct := 0
			for range tc.n {
				if cell := rng.Intn(tc.c); !occupied[cell] {
					occupied[cell] = true
					distinct++
				}
			}
			acc.Add(float64(tc.c - distinct))
		}
		mean, variance := SampleEmptyMany(xrand.New(9), tc.n, tc.c, tc.k)
		if math.Float64bits(mean) != math.Float64bits(acc.Mean()) || math.Float64bits(variance) != math.Float64bits(acc.Variance()) {
			t.Errorf("n=%d c=%d k=%d: (%v, %v), fresh draws (%v, %v)", tc.n, tc.c, tc.k, mean, variance, acc.Mean(), acc.Variance())
		}
	}
}

func TestAlpha(t *testing.T) {
	if got := Alpha(10, 4); got != 2.5 {
		t.Errorf("Alpha = %v", got)
	}
}

func BenchmarkEmptyCellsPMF1024(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := EmptyCellsPMF(1024, 256); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSampleEmpty(b *testing.B) {
	rng := xrand.New(1)
	occupied := make([]bool, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sampleEmpty(rng, 1024, occupied)
	}
}
