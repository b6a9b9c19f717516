package rangeassign

import (
	"math"
	"testing"
	"testing/quick"

	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/xrand"
)

func randomPts(seed uint64, n int) []geom.Point {
	reg := geom.MustRegion(1000, 2)
	return reg.UniformPoints(xrand.New(seed), n)
}

func TestUniformAssignment(t *testing.T) {
	a := Uniform(4, 3)
	if len(a) != 4 || a[0] != 3 || a.Max() != 3 {
		t.Fatalf("Uniform = %v", a)
	}
	if got := a.TotalPower(2); got != 4*9 {
		t.Fatalf("TotalPower = %v", got)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAssignmentValidate(t *testing.T) {
	for _, bad := range []Assignment{{-1}, {math.NaN()}, {math.Inf(1)}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("assignment %v accepted", bad)
		}
	}
	if (Assignment{}).Max() != 0 {
		t.Error("empty Max should be 0")
	}
}

func TestCommonRangeConnects(t *testing.T) {
	pts := randomPts(1, 30)
	a := CommonRange(pts)
	ok, err := Connected(pts, a)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("common range does not connect")
	}
	// Slightly below the critical radius it must disconnect.
	below := Uniform(len(pts), a[0]*(1-1e-9))
	ok, err = Connected(pts, below)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("sub-critical common range still connects")
	}
}

func TestMSTAssignmentConnectsAndSaves(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		pts := randomPts(seed, 40)
		mst := MSTAssignment(pts)
		ok, err := Connected(pts, mst)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: MST assignment does not connect", seed)
		}
		common := CommonRange(pts)
		if mst.TotalPower(2) > common.TotalPower(2)+1e-9 {
			t.Fatalf("seed %d: MST assignment costs more than common range", seed)
		}
		// The maximum assigned range equals the critical radius: the
		// bottleneck edge's endpoints must both reach across it.
		if math.Abs(mst.Max()-common[0]) > 1e-12 {
			t.Fatalf("seed %d: max MST range %v != critical %v", seed, mst.Max(), common[0])
		}
	}
}

func TestMSTAssignmentIsLocallyMinimal(t *testing.T) {
	// Shrinking any node's range below its longest incident MST edge keeps
	// that node from reaching some MST neighbor; the graph may still be
	// connected through other paths, but for a tree-like sparse placement
	// reducing the bottleneck endpoint must disconnect.
	pts := []geom.Point{{X: 0}, {X: 10}, {X: 25}} // gaps 10 and 15
	a := MSTAssignment(pts)
	want := Assignment{10, 15, 15}
	for i := range want {
		if math.Abs(a[i]-want[i]) > 1e-9 {
			t.Fatalf("assignment = %v, want %v", a, want)
		}
	}
	a[2] = 14 // node 2 can no longer reach node 1
	ok, err := Connected(pts, a)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("shrunken bottleneck endpoint still connects")
	}
}

func TestSymmetricGraphRule(t *testing.T) {
	// Edge requires BOTH endpoints to cover the distance.
	pts := []geom.Point{{X: 0}, {X: 5}}
	g, err := SymmetricGraph(pts, Assignment{10, 4})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 0 {
		t.Fatal("asymmetric coverage must not create an edge")
	}
	g, err = SymmetricGraph(pts, Assignment{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 1 {
		t.Fatal("mutual coverage at exact distance must create an edge")
	}
}

func TestSymmetricGraphValidation(t *testing.T) {
	pts := randomPts(3, 5)
	if _, err := SymmetricGraph(pts, Uniform(4, 1)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := SymmetricGraph(pts, Assignment{1, 2, 3, 4, math.NaN()}); err == nil {
		t.Error("NaN range accepted")
	}
}

func TestCompare(t *testing.T) {
	pts := randomPts(7, 50)
	cmp, err := Compare(pts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Savings <= 0 || cmp.Savings >= 1 {
		t.Fatalf("savings = %v, want inside (0,1)", cmp.Savings)
	}
	if cmp.AssignedPower >= cmp.CommonPower {
		t.Fatalf("per-node power %v not below common %v", cmp.AssignedPower, cmp.CommonPower)
	}
	// Higher alpha increases the relative advantage of shrinking radios.
	cmp4, err := Compare(pts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cmp4.Savings <= cmp.Savings {
		t.Fatalf("alpha=4 savings %v not above alpha=2 savings %v", cmp4.Savings, cmp.Savings)
	}
	if _, err := Compare(pts, 0.5); err == nil {
		t.Error("alpha < 1 accepted")
	}
}

func TestCompareDegenerate(t *testing.T) {
	if _, err := Compare(nil, 2); err != nil {
		t.Fatalf("empty placement: %v", err)
	}
	if _, err := Compare([]geom.Point{{X: 1}}, 2); err != nil {
		t.Fatalf("single point: %v", err)
	}
}

func TestPropertyMSTAssignmentAlwaysConnects(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		pts := randomPts(seed, n)
		a := MSTAssignment(pts)
		ok, err := Connected(pts, a)
		if err != nil {
			return false
		}
		if !ok {
			return false
		}
		// And never beats the information-theoretic floor: every node needs
		// at least its nearest-neighbor distance.
		g, err := SymmetricGraph(pts, a)
		if err != nil {
			return false
		}
		return g.DegreeStats().Isolated == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTAssignmentSubgraphContainsMST(t *testing.T) {
	pts := randomPts(11, 25)
	a := MSTAssignment(pts)
	g, err := SymmetricGraph(pts, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range graph.PrimMST(pts) {
		found := false
		for _, v := range g.Neighbors(int(e.I)) {
			if v == e.J {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("MST edge (%d,%d) missing from symmetric graph", e.I, e.J)
		}
	}
}

func BenchmarkMSTAssignment128(b *testing.B) {
	pts := randomPts(1, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MSTAssignment(pts)
	}
}
