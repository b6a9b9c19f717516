// Package occupancy implements the occupancy (balls-in-cells) theory the
// paper uses in Section 2: n balls are thrown independently and uniformly
// into C cells and mu(n,C) denotes the number of empty cells after all balls
// have been thrown. The package provides the exact distribution, mean and
// variance of mu, the asymptotic approximations of the paper's Theorem 1, the
// five asymptotic domains, and the limit laws of Theorem 2 (all results are
// from Kolchin, Sevast'yanov and Chistyakov, "Random Allocations", 1978).
package occupancy

import (
	"fmt"
	"math"

	"adhocnet/internal/stats"
	"adhocnet/internal/xrand"
)

// validate rejects parameter pairs outside the model.
func validate(n, c int) error {
	if n < 0 {
		return fmt.Errorf("occupancy: negative ball count %d", n)
	}
	if c <= 0 {
		return fmt.Errorf("occupancy: cell count must be positive, got %d", c)
	}
	return nil
}

// EmptyCellsPMF returns the exact probability mass function of mu(n,C): the
// returned slice has C+1 entries and entry k is P(mu(n,C) = k).
//
// It uses the forward dynamic program over the number of occupied cells
// (P(occupied=m after t+1 balls) = P(m)*m/C + P(m-1)*(C-m+1)/C), which is
// numerically stable — unlike the inclusion–exclusion formula quoted in the
// paper, it involves no cancellation, so it stays accurate for the large
// n and C the asymptotic theory targets. Cost is O(n*C).
//
// Every DP value below 2^-1022, the smallest normal float64, is set to 0:
// the tails of the distribution are sub-normal for most of a long run, and
// x86-64 CPUs compute sub-normals many times slower (at C = 4096, n = C ln
// C the unflushed DP took about 11 s on a 2-vCPU box). Over the T1
// experiment's (n, C) grid the flush moves only entries below 2^-969, each
// by less than 2^-1020.
func EmptyCellsPMF(n, c int) ([]float64, error) {
	if err := validate(n, c); err != nil {
		return nil, err
	}
	// occ[m] = P(exactly m occupied cells so far).
	occ := make([]float64, c+1)
	occ[0] = 1
	maxM := 0
	for t := 0; t < n; t++ {
		if maxM < c {
			maxM++
		}
		// Walk downward so occ[m-1] is still the value from the previous step.
		for m := maxM; m >= 1; m-- {
			v := occ[m]*float64(m)/float64(c) + occ[m-1]*float64(c-m+1)/float64(c)
			if v < 0x1p-1022 {
				v = 0
			}
			occ[m] = v
		}
		occ[0] = 0
	}
	pmf := make([]float64, c+1)
	for m := 0; m <= c; m++ {
		pmf[c-m] = occ[m]
	}
	return pmf, nil
}

// EmptyCellsPMFInclusionExclusion evaluates the paper's closed-form
// expression
//
//	P(mu(n,C)=k) = C(C,k) * sum_{j=0}^{C-k} (-1)^j C(C-k,j) (1-(k+j)/C)^n
//
// directly. The alternating sum cancels catastrophically for large n,C; this
// implementation exists as an independent reference for validating
// EmptyCellsPMF on small instances.
func EmptyCellsPMFInclusionExclusion(n, c int) ([]float64, error) {
	if err := validate(n, c); err != nil {
		return nil, err
	}
	pmf := make([]float64, c+1)
	for k := 0; k <= c; k++ {
		sum := 0.0
		for j := 0; j <= c-k; j++ {
			base := 1 - float64(k+j)/float64(c)
			term := math.Exp(stats.LogBinomial(c-k, j)) * math.Pow(base, float64(n))
			if j%2 == 1 {
				term = -term
			}
			sum += term
		}
		p := math.Exp(stats.LogBinomial(c, k)) * sum
		if p < 0 {
			p = 0 // cancellation noise
		}
		pmf[k] = p
	}
	return pmf, nil
}

// ExpectedEmpty returns the exact expectation E[mu(n,C)] = C(1-1/C)^n.
func ExpectedEmpty(n, c int) float64 {
	if c <= 0 {
		return 0
	}
	return float64(c) * math.Pow(1-1/float64(c), float64(n))
}

// VarianceEmpty returns the exact variance
//
//	Var[mu(n,C)] = C(C-1)(1-2/C)^n + C(1-1/C)^n - C^2 (1-1/C)^{2n}.
func VarianceEmpty(n, c int) float64 {
	if c <= 0 {
		return 0
	}
	cf := float64(c)
	nf := float64(n)
	v := cf*(cf-1)*math.Pow(1-2/cf, nf) +
		cf*math.Pow(1-1/cf, nf) -
		cf*cf*math.Pow(1-1/cf, 2*nf)
	if v < 0 {
		// The closed form can go epsilon-negative through rounding when the
		// true variance is ~0 (e.g. C=1 or n=0).
		v = 0
	}
	return v
}

// Alpha returns the load factor alpha = n/C used throughout Theorem 1.
func Alpha(n, c int) float64 { return float64(n) / float64(c) }

// ExpectedEmptyUpperBound returns the bound E[mu(n,C)] <= C e^{-alpha} from
// Theorem 1.
func ExpectedEmptyUpperBound(n, c int) float64 {
	return float64(c) * math.Exp(-Alpha(n, c))
}

// ExpectedEmptyAsymptotic returns the Theorem 1 approximation
//
//	E[mu(n,C)] = C e^{-alpha} - (alpha e^{-alpha})/2 + O((1+alpha)e^{-alpha}/C).
func ExpectedEmptyAsymptotic(n, c int) float64 {
	a := Alpha(n, c)
	return float64(c)*math.Exp(-a) - a*math.Exp(-a)/2
}

// VarianceEmptyAsymptotic returns the Theorem 1 approximation
//
//	Var[mu(n,C)] = C e^{-alpha} (1 - (1+alpha) e^{-alpha}) + O(...).
func VarianceEmptyAsymptotic(n, c int) float64 {
	a := Alpha(n, c)
	return float64(c) * math.Exp(-a) * (1 - (1+a)*math.Exp(-a))
}

// Domain identifies the asymptotic domain of a (n, C) family as n,C -> inf,
// following the paper's five-way classification.
type Domain int

const (
	// DomainCentral: n = Theta(C).
	DomainCentral Domain = iota + 1
	// DomainRight: n = Theta(C log C).
	DomainRight
	// DomainLeft: n = Theta(sqrt(C)).
	DomainLeft
	// DomainRightIntermediate: n = Omega(C) but C log C >> n.
	DomainRightIntermediate
	// DomainLeftIntermediate: n = O(C) but n >> sqrt(C).
	DomainLeftIntermediate
)

// String returns the paper's abbreviation for the domain.
func (d Domain) String() string {
	switch d {
	case DomainCentral:
		return "CD"
	case DomainRight:
		return "RHD"
	case DomainLeft:
		return "LHD"
	case DomainRightIntermediate:
		return "RHID"
	case DomainLeftIntermediate:
		return "LHID"
	default:
		return fmt.Sprintf("Domain(%d)", int(d))
	}
}

// ClassifyDomain assigns a finite instance (n, C) to the asymptotic domain it
// most plausibly belongs to. The domains are defined for families n(C) as
// C -> inf, so any finite classification is necessarily a heuristic; the
// constant-factor bands used here (documented inline) map the canonical
// families n = sqrt(C), C^b, C, C·polylog, C·log C onto the expected domains
// for all C >= 16.
func ClassifyDomain(n, c int) Domain {
	nf := float64(n)
	cf := float64(c)
	logC := math.Log(cf)
	switch {
	case nf <= 2*math.Sqrt(cf):
		return DomainLeft
	case nf < cf/2:
		return DomainLeftIntermediate
	case nf <= 2*cf:
		return DomainCentral
	case nf < cf*logC/2:
		return DomainRightIntermediate
	default:
		return DomainRight
	}
}

// LawKind distinguishes the limit laws of Theorem 2.
type LawKind int

const (
	// LawNormal: mu is asymptotically normal.
	LawNormal LawKind = iota + 1
	// LawPoisson: mu is asymptotically Poisson.
	LawPoisson
	// LawShiftedPoisson: eta = mu - (C-n) is asymptotically Poisson (LHD).
	LawShiftedPoisson
)

func (k LawKind) String() string {
	switch k {
	case LawNormal:
		return "normal"
	case LawPoisson:
		return "Poisson"
	case LawShiftedPoisson:
		return "shifted-Poisson"
	default:
		return fmt.Sprintf("LawKind(%d)", int(k))
	}
}

// LimitLaw describes the limit distribution of mu(n,C) per Theorem 2,
// parameterized with the exact finite-(n,C) moments.
type LimitLaw struct {
	Domain Domain
	Kind   LawKind
	// Mean and Std parameterize the normal law.
	Mean, Std float64
	// Lambda parameterizes the Poisson law.
	Lambda float64
	// Shift is C-n for the shifted-Poisson law (eta = mu - Shift).
	Shift int
}

// Limit returns the Theorem 2 limit law for the (heuristically classified)
// domain of (n, C):
//
//   - CD, RHID, LHID: normal with parameters (E[mu], sqrt(Var[mu]));
//   - RHD: Poisson with lambda = lim E[mu];
//   - LHD: eta = mu - (C-n) is Poisson with rho = lim Var[mu].
func Limit(n, c int) LimitLaw {
	d := ClassifyDomain(n, c)
	law := LimitLaw{Domain: d}
	switch d {
	case DomainRight:
		law.Kind = LawPoisson
		law.Lambda = ExpectedEmpty(n, c)
	case DomainLeft:
		law.Kind = LawShiftedPoisson
		law.Lambda = VarianceEmpty(n, c)
		law.Shift = c - n
	default:
		law.Kind = LawNormal
		law.Mean = ExpectedEmpty(n, c)
		law.Std = math.Sqrt(VarianceEmpty(n, c))
	}
	return law
}

// PMF evaluates the limit law's probability of mu(n,C) = k, using a
// half-integer continuity correction for the normal case.
func (l LimitLaw) PMF(k int) float64 {
	switch l.Kind {
	case LawPoisson:
		return stats.PoissonPMF(l.Lambda, k)
	case LawShiftedPoisson:
		return stats.PoissonPMF(l.Lambda, k-l.Shift)
	default:
		if l.Std == 0 {
			if float64(k) == l.Mean {
				return 1
			}
			return 0
		}
		hi := (float64(k) + 0.5 - l.Mean) / l.Std
		lo := (float64(k) - 0.5 - l.Mean) / l.Std
		return stats.NormalCDF(hi) - stats.NormalCDF(lo)
	}
}

// sampleEmpty throws n balls into the len(occupied) cells uniformly at
// random and returns the number of empty cells. occupied is the caller's
// scratch, cleared here before the draw, so repeated draws allocate nothing.
func sampleEmpty(rng *xrand.Rand, n int, occupied []bool) int {
	c := len(occupied)
	if c == 0 {
		return 0
	}
	clear(occupied)
	distinct := 0
	for i := 0; i < n; i++ {
		cell := rng.Intn(c)
		if !occupied[cell] {
			occupied[cell] = true
			distinct++
		}
	}
	return c - distinct
}

// SampleEmptyMany throws n balls into c cells uniformly at random k times
// and returns the empirical mean and variance of the number of empty cells:
// k independent samples of mu(n,C), the Monte-Carlo counterpart of
// EmptyCellsPMF used for validation experiments. The draws share one
// scratch slice of c cells.
func SampleEmptyMany(rng *xrand.Rand, n, c, k int) (mean, variance float64) {
	var acc stats.Accumulator
	occupied := make([]bool, max(c, 0))
	for i := 0; i < k; i++ {
		acc.Add(float64(sampleEmpty(rng, n, occupied)))
	}
	return acc.Mean(), acc.Variance()
}
