// Package geom provides the geometric primitives of the simulator: points in
// up to three dimensions, the bounded deployment region [0,l]^d from the
// paper's system model, distances, and random sampling of placements.
//
// The paper (Section 2) models a d-dimensional mobile ad hoc network as
// M_d = (N, P) with placement function P: N×T -> [0,l]^d. Points here always
// carry three coordinates; a Region of dimension d < 3 constrains the unused
// coordinates to zero, so Euclidean distance is correct for every d.
package geom

import (
	"fmt"
	"math"

	"adhocnet/internal/xrand"
)

// Point is a position in [0,l]^d. For d < 3 the trailing coordinates are zero.
type Point struct {
	X, Y, Z float64
}

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Scale returns the point scaled by s.
func (p Point) Scale(s float64) Point { return Point{s * p.X, s * p.Y, s * p.Z} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y + p.Z*q.Z }

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// Dist returns the Euclidean distance between p and q.
func Dist(p, q Point) float64 { return math.Sqrt(Dist2(p, q)) }

// Dist2 returns the squared Euclidean distance between p and q. Preferred in
// inner loops: comparing squared distances avoids the square root.
func Dist2(p, q Point) float64 {
	return SumSq(p.X-q.X, p.Y-q.Y, p.Z-q.Z)
}

// SumSq combines three per-axis differences into a squared distance in
// exactly the operation order of Dist2: square each axis, then sum X, Y, Z
// left to right. Every squared-distance-like quantity in the simulator —
// including the k-d tree's box bounds, which square per-axis interval gaps
// rather than point differences — must go through Dist2 or SumSq. float64
// rounding is monotone, so a bound assembled by SumSq from per-axis lower
// (upper) bounds can never exceed (undercut) the Dist2 value of any pair it
// prunes, which is what keeps tree and grid backends bitwise identical. The
// adhoclint geomdist analyzer rejects inline dx*dx+dy*dy expressions
// outside this package so the order cannot silently fork.
func SumSq(dx, dy, dz float64) float64 { return dx*dx + dy*dy + dz*dz }

// SumSq2 is SumSq(dx, dy, 0) without the add of a zero Z term, which the
// compiler cannot drop for floats: the same two squares summed in the same
// order, bit for bit (a sum of squares is never -0, so adding +0 changes
// nothing). Kernels over flat placements use it.
func SumSq2(dx, dy float64) float64 { return dx*dx + dy*dy }

// Lerp returns the point a fraction t of the way from p to q. t outside [0,1]
// extrapolates.
func Lerp(p, q Point, t float64) Point {
	return Point{
		X: p.X + t*(q.X-p.X),
		Y: p.Y + t*(q.Y-p.Y),
		Z: p.Z + t*(q.Z-p.Z),
	}
}

// StepToward returns the point reached by moving from p toward target with
// the given step length. If target is within step, it returns target and
// reached = true. A zero-length move (p == target) also reports reached.
func StepToward(p, target Point, step float64) (next Point, reached bool) {
	d := Dist(p, target)
	if d <= step || d == 0 {
		return target, true
	}
	return Lerp(p, target, step/d), false
}

// Region is the deployment region [0, L]^Dim with Dim in {1, 2, 3}.
type Region struct {
	L   float64
	Dim int
}

// NewRegion returns the region [0,l]^d. It returns an error for non-positive
// l or a dimension outside {1,2,3}.
func NewRegion(l float64, dim int) (Region, error) {
	if !(l > 0) {
		return Region{}, fmt.Errorf("geom: region side must be positive, got %v", l)
	}
	if dim < 1 || dim > 3 {
		return Region{}, fmt.Errorf("geom: dimension must be 1, 2 or 3, got %d", dim)
	}
	return Region{L: l, Dim: dim}, nil
}

// MustRegion is NewRegion for statically known-good parameters; it panics on
// error and is intended for tests and package-internal literals.
func MustRegion(l float64, dim int) Region {
	reg, err := NewRegion(l, dim)
	if err != nil {
		panic(err)
	}
	return reg
}

// Diameter returns the largest possible distance between two points of the
// region, l*sqrt(d). Any transmitting range at or above this value trivially
// yields a complete (hence connected) communication graph.
func (g Region) Diameter() float64 {
	return g.L * math.Sqrt(float64(g.Dim))
}

// Contains reports whether p lies inside the region (inclusive bounds), with
// unused coordinates required to be exactly zero.
func (g Region) Contains(p Point) bool {
	in := func(v float64) bool { return v >= 0 && v <= g.L }
	switch g.Dim {
	case 1:
		return in(p.X) && p.Y == 0 && p.Z == 0
	case 2:
		return in(p.X) && in(p.Y) && p.Z == 0
	default:
		return in(p.X) && in(p.Y) && in(p.Z)
	}
}

// Clamp returns p with every active coordinate clamped into [0, L] and every
// inactive coordinate zeroed.
func (g Region) Clamp(p Point) Point {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > g.L {
			return g.L
		}
		return v
	}
	out := Point{X: clamp(p.X)}
	if g.Dim >= 2 {
		out.Y = clamp(p.Y)
	}
	if g.Dim >= 3 {
		out.Z = clamp(p.Z)
	}
	return out
}

// UniformPoint samples a point uniformly at random in the region, matching
// the paper's placement assumption (nodes i.i.d. uniform in [0,l]^d).
func (g Region) UniformPoint(rng *xrand.Rand) Point {
	p := Point{X: rng.Float64() * g.L}
	if g.Dim >= 2 {
		p.Y = rng.Float64() * g.L
	}
	if g.Dim >= 3 {
		p.Z = rng.Float64() * g.L
	}
	return p
}

// UniformPoints samples n points i.i.d. uniform in the region.
func (g Region) UniformPoints(rng *xrand.Rand, n int) []Point {
	pts := make([]Point, n)
	g.FillUniformPoints(rng, pts)
	return pts
}

// FillUniformPoints overwrites every element of pts with an i.i.d. uniform
// point of the region — UniformPoints into caller-provided storage, for
// samplers that draw one placement after another without allocating.
func (g Region) FillUniformPoints(rng *xrand.Rand, pts []Point) {
	for i := range pts {
		pts[i] = g.UniformPoint(rng)
	}
}

// UniformInBall samples a point uniformly in the d-dimensional ball of the
// given radius centered at c, where d is the region's dimension. This is the
// drunkard model's step law: "position in step i+1 is chosen uniformly at
// random in the disk of radius m centered at the current node location".
// The sample is NOT clipped to the region; callers clamp or reflect it.
func (g Region) UniformInBall(rng *xrand.Rand, c Point, radius float64) Point {
	if radius < 0 {
		radius = 0
	}
	switch g.Dim {
	case 1:
		return Point{X: c.X + rng.Range(-radius, radius)}
	case 2:
		// Rejection sampling in the square: expected < 1.28 iterations.
		for {
			dx := rng.Range(-radius, radius)
			dy := rng.Range(-radius, radius)
			if dx*dx+dy*dy <= radius*radius {
				return Point{X: c.X + dx, Y: c.Y + dy}
			}
		}
	default:
		// Rejection sampling in the cube: expected < 1.91 iterations.
		for {
			dx := rng.Range(-radius, radius)
			dy := rng.Range(-radius, radius)
			dz := rng.Range(-radius, radius)
			if dx*dx+dy*dy+dz*dz <= radius*radius {
				return Point{X: c.X + dx, Y: c.Y + dy, Z: c.Z + dz}
			}
		}
	}
}

// UnitVector samples a uniformly distributed direction in the region's
// dimension (used by the random-direction mobility extension).
func (g Region) UnitVector(rng *xrand.Rand) Point {
	switch g.Dim {
	case 1:
		if rng.Bool(0.5) {
			return Point{X: 1}
		}
		return Point{X: -1}
	case 2:
		theta := rng.Range(0, 2*math.Pi)
		return Point{X: math.Cos(theta), Y: math.Sin(theta)}
	default:
		// Marsaglia: normalize a standard 3-D Gaussian vector.
		for {
			v := Point{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			n := v.Norm()
			if n > 1e-12 {
				return v.Scale(1 / n)
			}
		}
	}
}
