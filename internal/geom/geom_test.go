package geom

import (
	"math"
	"testing"
	"testing/quick"

	"adhocnet/internal/xrand"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	p := Point{1, 2, 3}
	q := Point{4, -2, 1}
	if got := p.Add(q); got != (Point{5, 0, 4}) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 4-4+3 {
		t.Errorf("Dot = %v", got)
	}
	if got := (Point{3, 4, 0}).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
}

func TestDist(t *testing.T) {
	cases := []struct {
		p, q Point
		want float64
	}{
		{Point{}, Point{}, 0},
		{Point{0, 0, 0}, Point{3, 4, 0}, 5},
		{Point{1, 1, 1}, Point{2, 2, 2}, math.Sqrt(3)},
		{Point{-1, 0, 0}, Point{1, 0, 0}, 2},
	}
	for _, c := range cases {
		if got := Dist(c.p, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Dist(%v,%v) = %v, want %v", c.p, c.q, got, c.want)
		}
		if got := Dist2(c.p, c.q); !almostEqual(got, c.want*c.want, 1e-12) {
			t.Errorf("Dist2(%v,%v) = %v, want %v", c.p, c.q, got, c.want*c.want)
		}
	}
}

// TestSumSq2MatchesSumSq checks SumSq2(a, b) against SumSq(a, b, 0), and
// against SumSq with a Z difference of ±0 known only at run time (what a
// flat placement's Dist2 adds), bit for bit: signed zeros, subnormals,
// squares that underflow or overflow to +Inf, and random magnitudes.
func TestSumSq2MatchesSumSq(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, -3.75,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64,
		0x1p-1022, 1e-160, 1e154, -1.4e154, 1e200, math.MaxFloat64, -math.MaxFloat64,
	}
	rng := xrand.New(5)
	for range 200 {
		vals = append(vals, math.Ldexp(rng.Range(-1, 1), rng.Intn(2100)-1074))
	}
	zs := []float64{0, math.Copysign(0, -1)}
	for _, a := range vals {
		for _, b := range vals {
			got := math.Float64bits(SumSq2(a, b))
			if want := math.Float64bits(SumSq(a, b, 0)); got != want {
				t.Fatalf("SumSq2(%v, %v) = %v, SumSq(a, b, 0) = %v", a, b, SumSq2(a, b), SumSq(a, b, 0))
			}
			for _, z := range zs {
				if want := math.Float64bits(SumSq(a, b, z)); got != want {
					t.Fatalf("SumSq2(%v, %v) = %v, SumSq(a, b, %v) = %v", a, b, SumSq2(a, b), z, SumSq(a, b, z))
				}
			}
		}
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Constrain magnitudes to keep the arithmetic exact enough.
		a := Point{X: math.Mod(ax, 1e6), Y: math.Mod(ay, 1e6)}
		b := Point{X: math.Mod(bx, 1e6), Y: math.Mod(by, 1e6)}
		return Dist(a, b) == Dist(b, a) && Dist(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		norm := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e4)
		}
		a := Point{X: norm(ax), Y: norm(ay)}
		b := Point{X: norm(bx), Y: norm(by)}
		c := Point{X: norm(cx), Y: norm(cy)}
		return Dist(a, c) <= Dist(a, b)+Dist(b, c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	p := Point{0, 0, 0}
	q := Point{10, 20, 30}
	if got := Lerp(p, q, 0); got != p {
		t.Errorf("Lerp(0) = %v", got)
	}
	if got := Lerp(p, q, 1); got != q {
		t.Errorf("Lerp(1) = %v", got)
	}
	if got := Lerp(p, q, 0.5); got != (Point{5, 10, 15}) {
		t.Errorf("Lerp(0.5) = %v", got)
	}
}

func TestStepToward(t *testing.T) {
	p := Point{0, 0, 0}
	q := Point{10, 0, 0}

	next, reached := StepToward(p, q, 4)
	if reached || !almostEqual(next.X, 4, 1e-12) {
		t.Errorf("StepToward partial: %v reached=%v", next, reached)
	}

	next, reached = StepToward(p, q, 15)
	if !reached || next != q {
		t.Errorf("StepToward overshoot: %v reached=%v", next, reached)
	}

	next, reached = StepToward(q, q, 1)
	if !reached || next != q {
		t.Errorf("StepToward at target: %v reached=%v", next, reached)
	}

	// Exact-distance step lands on the target.
	next, reached = StepToward(p, q, 10)
	if !reached || next != q {
		t.Errorf("StepToward exact: %v reached=%v", next, reached)
	}
}

func TestNewRegionValidation(t *testing.T) {
	if _, err := NewRegion(0, 2); err == nil {
		t.Error("NewRegion(0,2) should fail")
	}
	if _, err := NewRegion(-1, 2); err == nil {
		t.Error("NewRegion(-1,2) should fail")
	}
	if _, err := NewRegion(math.NaN(), 2); err == nil {
		t.Error("NewRegion(NaN,2) should fail")
	}
	if _, err := NewRegion(10, 0); err == nil {
		t.Error("NewRegion(10,0) should fail")
	}
	if _, err := NewRegion(10, 4); err == nil {
		t.Error("NewRegion(10,4) should fail")
	}
	for d := 1; d <= 3; d++ {
		if _, err := NewRegion(10, d); err != nil {
			t.Errorf("NewRegion(10,%d) failed: %v", d, err)
		}
	}
}

func TestMustRegionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRegion(0,2) did not panic")
		}
	}()
	MustRegion(0, 2)
}

func TestDiameter(t *testing.T) {
	if got := MustRegion(10, 1).Diameter(); !almostEqual(got, 10, 1e-12) {
		t.Errorf("1-D diameter = %v", got)
	}
	if got := MustRegion(10, 2).Diameter(); !almostEqual(got, 10*math.Sqrt2, 1e-12) {
		t.Errorf("2-D diameter = %v", got)
	}
	if got := MustRegion(10, 3).Diameter(); !almostEqual(got, 10*math.Sqrt(3), 1e-12) {
		t.Errorf("3-D diameter = %v", got)
	}
}

func TestContains(t *testing.T) {
	r2 := MustRegion(10, 2)
	cases := []struct {
		p    Point
		want bool
	}{
		{Point{5, 5, 0}, true},
		{Point{0, 0, 0}, true},
		{Point{10, 10, 0}, true},
		{Point{-0.1, 5, 0}, false},
		{Point{5, 10.1, 0}, false},
		{Point{5, 5, 1}, false}, // inactive coordinate must be zero
	}
	for _, c := range cases {
		if got := r2.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	r1 := MustRegion(10, 1)
	if !r1.Contains(Point{X: 3}) || r1.Contains(Point{X: 3, Y: 1}) {
		t.Error("1-D Contains mishandles Y coordinate")
	}
	r3 := MustRegion(10, 3)
	if !r3.Contains(Point{1, 2, 3}) || r3.Contains(Point{1, 2, 11}) {
		t.Error("3-D Contains broken")
	}
}

func TestClamp(t *testing.T) {
	r := MustRegion(10, 2)
	cases := []struct {
		in, want Point
	}{
		{Point{5, 5, 0}, Point{5, 5, 0}},
		{Point{-1, 5, 0}, Point{0, 5, 0}},
		{Point{11, -2, 0}, Point{10, 0, 0}},
		{Point{3, 4, 9}, Point{3, 4, 0}}, // zeroes inactive coordinate
	}
	for _, c := range cases {
		if got := r.Clamp(c.in); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestUniformPointInRegion(t *testing.T) {
	rng := xrand.New(1)
	for d := 1; d <= 3; d++ {
		reg := MustRegion(100, d)
		for i := 0; i < 2000; i++ {
			p := reg.UniformPoint(rng)
			if !reg.Contains(p) {
				t.Fatalf("d=%d: UniformPoint %v outside region", d, p)
			}
		}
	}
}

func TestUniformPointsCountAndMean(t *testing.T) {
	rng := xrand.New(2)
	reg := MustRegion(10, 2)
	pts := reg.UniformPoints(rng, 50000)
	if len(pts) != 50000 {
		t.Fatalf("UniformPoints returned %d points", len(pts))
	}
	var sx, sy float64
	for _, p := range pts {
		sx += p.X
		sy += p.Y
	}
	mx, my := sx/50000, sy/50000
	if math.Abs(mx-5) > 0.1 || math.Abs(my-5) > 0.1 {
		t.Fatalf("uniform sample mean (%v,%v), want ~(5,5)", mx, my)
	}
}

func TestUniformInBall(t *testing.T) {
	rng := xrand.New(3)
	for d := 1; d <= 3; d++ {
		reg := MustRegion(100, d)
		c := Point{X: 50}
		if d >= 2 {
			c.Y = 50
		}
		if d >= 3 {
			c.Z = 50
		}
		for i := 0; i < 2000; i++ {
			p := reg.UniformInBall(rng, c, 5)
			if Dist(p, c) > 5+1e-9 {
				t.Fatalf("d=%d: ball sample %v at distance %v > 5", d, p, Dist(p, c))
			}
		}
	}
}

func TestUniformInBallZeroRadius(t *testing.T) {
	rng := xrand.New(4)
	reg := MustRegion(10, 2)
	c := Point{X: 3, Y: 4}
	p := reg.UniformInBall(rng, c, 0)
	if Dist(p, c) != 0 {
		t.Fatalf("zero-radius ball sample moved: %v", p)
	}
	// Negative radius behaves as zero rather than producing NaN.
	p = reg.UniformInBall(rng, c, -1)
	if Dist(p, c) != 0 {
		t.Fatalf("negative-radius ball sample moved: %v", p)
	}
}

func TestUniformInBallCoversDisk(t *testing.T) {
	// In 2-D the fraction of samples in the inner half-radius disk should be
	// ~1/4 (area ratio), distinguishing uniform-in-disk from uniform-in-angle.
	rng := xrand.New(5)
	reg := MustRegion(100, 2)
	c := Point{X: 50, Y: 50}
	const n = 100000
	inner := 0
	for i := 0; i < n; i++ {
		if Dist(reg.UniformInBall(rng, c, 10), c) <= 5 {
			inner++
		}
	}
	frac := float64(inner) / n
	if math.Abs(frac-0.25) > 0.01 {
		t.Fatalf("inner-disk fraction = %v, want ~0.25", frac)
	}
}

func TestUnitVector(t *testing.T) {
	rng := xrand.New(6)
	for d := 1; d <= 3; d++ {
		reg := MustRegion(1, d)
		var mean Point
		const n = 20000
		for i := 0; i < n; i++ {
			v := reg.UnitVector(rng)
			if !almostEqual(v.Norm(), 1, 1e-9) {
				t.Fatalf("d=%d: unit vector norm %v", d, v.Norm())
			}
			mean = mean.Add(v)
		}
		mean = mean.Scale(1.0 / n)
		if mean.Norm() > 0.02 {
			t.Fatalf("d=%d: direction mean %v not ~0 (biased directions)", d, mean)
		}
	}
}

func BenchmarkDist2(b *testing.B) {
	p, q := Point{1, 2, 3}, Point{4, 5, 6}
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = Dist2(p, q)
	}
	_ = sink
}

func BenchmarkUniformPoint2D(b *testing.B) {
	rng := xrand.New(1)
	reg := MustRegion(1000, 2)
	var sink Point
	for i := 0; i < b.N; i++ {
		sink = reg.UniformPoint(rng)
	}
	_ = sink
}
