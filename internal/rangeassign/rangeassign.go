// Package rangeassign implements the range assignment problem that frames
// the paper's MTR question: instead of one common transmitting range, every
// node may use its own range r_i, and the goal is a connected network of
// minimum total power sum_i r_i^alpha. The paper's companion works ([1,11],
// "A Probabilistic Analysis for the Range Assignment Problem in Ad Hoc
// Networks") study exactly this problem; MTR is its uniform special case,
// and the paper motivates minimizing r via the energy argument this package
// makes concrete.
//
// Connectivity semantics: links are symmetric (an edge exists iff both
// endpoints cover each other, dist(u,v) <= min(r_u, r_v)), the standard
// model when acknowledgments are required. Under this rule:
//
//   - the common range CommonRange(pts) = the placement's critical radius is
//     optimal among uniform assignments;
//   - MSTAssignment (r_i = the longest MST edge incident to i) yields a
//     connected symmetric graph whose maximum range equals the critical
//     radius but whose total power is generally much lower — interior nodes
//     shrink their radios to their local neighborhood.
package rangeassign

import (
	"fmt"
	"math"

	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
)

// Assignment is a per-node transmitting range vector.
type Assignment []float64

// Validate checks that every range is finite and non-negative.
func (a Assignment) Validate() error {
	for i, r := range a {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("rangeassign: node %d has invalid range %v", i, r)
		}
	}
	return nil
}

// TotalPower returns sum_i r_i^alpha, the energy-cost objective of the range
// assignment problem.
func (a Assignment) TotalPower(alpha float64) float64 {
	total := 0.0
	for _, r := range a {
		total += math.Pow(r, alpha)
	}
	return total
}

// Max returns the largest assigned range (0 for an empty assignment).
func (a Assignment) Max() float64 {
	max := 0.0
	for _, r := range a {
		if r > max {
			max = r
		}
	}
	return max
}

// Uniform returns the common-range assignment r_i = r for n nodes.
func Uniform(n int, r float64) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = r
	}
	return a
}

// CommonRange returns the optimal uniform assignment for the placement: every
// node transmits at the placement's critical radius (the MST bottleneck).
func CommonRange(pts []geom.Point) Assignment {
	return Uniform(len(pts), graph.MSTBottleneck(pts))
}

// MSTAssignment returns the classic MST-based per-node assignment: node i
// transmits exactly far enough to reach its farthest MST neighbor. The
// symmetric communication graph then contains every MST edge (both endpoints
// of an MST edge assign at least its length), so the network is connected;
// total power is a 2-approximation of the optimum for alpha >= 1 on metric
// instances.
func MSTAssignment(pts []geom.Point) Assignment {
	a := make(Assignment, len(pts))
	for _, e := range graph.GeoMST(pts, 3) {
		if e.D > a[e.I] {
			a[e.I] = e.D
		}
		if e.D > a[e.J] {
			a[e.J] = e.D
		}
	}
	return a
}

// SymmetricGraph builds the communication graph induced by the assignment
// under the symmetric-link rule: edge (i,j) iff dist(i,j) <= min(r_i, r_j).
func SymmetricGraph(pts []geom.Point, a Assignment) (*graph.Adjacency, error) {
	if len(a) != len(pts) {
		return nil, fmt.Errorf("rangeassign: %d ranges for %d points", len(a), len(pts))
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	var edges []graph.Edge
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			d2 := geom.Dist2(pts[i], pts[j])
			reach := math.Min(a[i], a[j])
			if d2 <= reach*reach {
				edges = append(edges, graph.Edge{I: int32(i), J: int32(j), D: math.Sqrt(d2)})
			}
		}
	}
	return graph.AdjacencyFromEdges(len(pts), edges), nil
}

// Connected reports whether the assignment connects the placement under the
// symmetric-link rule.
func Connected(pts []geom.Point, a Assignment) (bool, error) {
	g, err := SymmetricGraph(pts, a)
	if err != nil {
		return false, err
	}
	return g.Connected(), nil
}

// Comparison reports how a per-node assignment fares against the optimal
// common range on one placement.
type Comparison struct {
	// CommonPower and AssignedPower are the total powers of the two
	// solutions at the given alpha.
	CommonPower, AssignedPower float64
	// Savings is 1 - AssignedPower/CommonPower.
	Savings float64
	// MaxRange of the per-node assignment (equals the critical radius for
	// the MST assignment).
	MaxRange float64
}

// Compare evaluates the MST assignment against the optimal common range on
// the placement at path-loss exponent alpha.
func Compare(pts []geom.Point, alpha float64) (Comparison, error) {
	if alpha < 1 || math.IsNaN(alpha) {
		return Comparison{}, fmt.Errorf("rangeassign: path-loss exponent must be >= 1, got %v", alpha)
	}
	common := CommonRange(pts)
	mst := MSTAssignment(pts)
	// Both must connect; this is an internal invariant worth the check.
	for _, c := range []struct {
		name string
		a    Assignment
	}{{"common", common}, {"mst", mst}} {
		ok, err := Connected(pts, c.a)
		if err != nil {
			return Comparison{}, err
		}
		if !ok && len(pts) > 1 {
			return Comparison{}, fmt.Errorf("rangeassign: %s assignment failed to connect the placement", c.name)
		}
	}
	cp := common.TotalPower(alpha)
	ap := mst.TotalPower(alpha)
	out := Comparison{
		CommonPower:   cp,
		AssignedPower: ap,
		MaxRange:      mst.Max(),
	}
	if cp > 0 {
		out.Savings = 1 - ap/cp
	}
	return out, nil
}
