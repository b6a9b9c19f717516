package mobility

import (
	"math"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/xrand"
)

// allModels returns one representative configuration per model type.
func allModels(l float64) []Model {
	return []Model{
		Stationary{},
		RandomWaypoint{VMin: 0.1, VMax: 0.01 * l, PauseSteps: 5},
		RandomWaypoint{VMin: 1, VMax: 1, PauseSteps: 0, PStationary: 0.5},
		Drunkard{PStationary: 0.1, PPause: 0.3, M: 0.01 * l},
		RandomDirection{VMin: 0.5, VMax: 2, PauseSteps: 3},
		GaussMarkov{Alpha: 0.8, MeanSpeed: 0.01 * l, Sigma: 0.005 * l},
		GaussMarkov{Alpha: 0, MeanSpeed: 0.01 * l, Sigma: 0.01 * l, PStationary: 0.3},
		RPGM{Groups: 4, GroupRadius: 0.1 * l, Jitter: 0.01 * l, VMin: 0.1, VMax: 0.01 * l, PauseSteps: 2},
	}
}

func TestPositionsStayInRegion(t *testing.T) {
	for _, dim := range []int{1, 2, 3} {
		reg := geom.MustRegion(100, dim)
		for _, m := range allModels(reg.L) {
			rng := xrand.New(42)
			st, err := m.NewState(rng, reg, 30, nil)
			if err != nil {
				t.Fatalf("%s dim=%d: %v", m.Name(), dim, err)
			}
			for step := 0; step < 500; step++ {
				st.Step()
				for i, p := range st.Positions() {
					if !reg.Contains(p) {
						t.Fatalf("%s dim=%d step=%d: node %d left region: %v",
							m.Name(), dim, step, i, p)
					}
				}
			}
		}
	}
}

func TestInitialPlacementUniform(t *testing.T) {
	// Mean of initial positions across many runs should be the region
	// center for every model.
	reg := geom.MustRegion(10, 2)
	for _, m := range allModels(reg.L) {
		rng := xrand.New(7)
		var sx, sy float64
		const runs = 200
		const n = 50
		for run := 0; run < runs; run++ {
			st, err := m.NewState(rng.Split(), reg, n, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range st.Positions() {
				sx += p.X
				sy += p.Y
			}
		}
		mx, my := sx/(runs*n), sy/(runs*n)
		if math.Abs(mx-5) > 0.2 || math.Abs(my-5) > 0.2 {
			t.Errorf("%s: initial mean (%v,%v), want ~(5,5)", m.Name(), mx, my)
		}
	}
}

func TestStationaryNeverMoves(t *testing.T) {
	reg := geom.MustRegion(50, 2)
	st, err := Stationary{}.NewState(xrand.New(1), reg, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]geom.Point(nil), st.Positions()...)
	for i := 0; i < 100; i++ {
		st.Step()
	}
	for i, p := range st.Positions() {
		if p != before[i] {
			t.Fatalf("stationary node %d moved from %v to %v", i, before[i], p)
		}
	}
}

func TestWaypointMovesTowardDestination(t *testing.T) {
	reg := geom.MustRegion(100, 2)
	m := RandomWaypoint{VMin: 1, VMax: 1, PauseSteps: 0}
	st, err := m.NewState(xrand.New(3), reg, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]geom.Point(nil), st.Positions()...)
	st.Step()
	after := st.Positions()
	for i := range after {
		d := geom.Dist(before[i], after[i])
		// Speed is exactly 1, so each step moves at most 1 (less on arrival).
		if d > 1+1e-9 {
			t.Fatalf("node %d moved %v > speed 1 in one step", i, d)
		}
		if d == 0 {
			t.Fatalf("node %d did not move despite pause=0, p_stationary=0", i)
		}
	}
}

func TestWaypointSpeedBounds(t *testing.T) {
	reg := geom.MustRegion(1000, 2)
	m := RandomWaypoint{VMin: 2, VMax: 5, PauseSteps: 0}
	st, err := m.NewState(xrand.New(11), reg, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		before := append([]geom.Point(nil), st.Positions()...)
		st.Step()
		for i, p := range st.Positions() {
			d := geom.Dist(before[i], p)
			if d > 5+1e-9 {
				t.Fatalf("step %d node %d: displacement %v exceeds VMax", step, i, d)
			}
		}
	}
}

func TestWaypointPausesAtDestination(t *testing.T) {
	// With a huge speed the node reaches its destination in one step and
	// must then stay put for exactly PauseSteps steps.
	reg := geom.MustRegion(10, 2)
	m := RandomWaypoint{VMin: 100, VMax: 100, PauseSteps: 4}
	st, err := m.NewState(xrand.New(5), reg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Step() // arrives
	arrived := st.Positions()[0]
	for k := 0; k < 4; k++ {
		st.Step()
		if st.Positions()[0] != arrived && k < 3 {
			t.Fatalf("node moved during pause step %d", k)
		}
	}
}

func TestWaypointPStationaryFreezesFraction(t *testing.T) {
	reg := geom.MustRegion(100, 2)
	m := RandomWaypoint{VMin: 1, VMax: 2, PauseSteps: 0, PStationary: 0.5}
	rng := xrand.New(9)
	const n = 2000
	st, err := m.NewState(rng, reg, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]geom.Point(nil), st.Positions()...)
	for i := 0; i < 10; i++ {
		st.Step()
	}
	frozen := 0
	for i, p := range st.Positions() {
		if p == before[i] {
			frozen++
		}
	}
	frac := float64(frozen) / n
	if math.Abs(frac-0.5) > 0.05 {
		t.Fatalf("frozen fraction = %v, want ~0.5", frac)
	}
}

func TestWaypointPStationaryOneIsStationary(t *testing.T) {
	reg := geom.MustRegion(100, 2)
	m := RandomWaypoint{VMin: 1, VMax: 2, PStationary: 1}
	st, err := m.NewState(xrand.New(13), reg, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]geom.Point(nil), st.Positions()...)
	for i := 0; i < 50; i++ {
		st.Step()
	}
	for i, p := range st.Positions() {
		if p != before[i] {
			t.Fatalf("node %d moved with PStationary=1", i)
		}
	}
}

func TestDrunkardStepBound(t *testing.T) {
	reg := geom.MustRegion(100, 2)
	m := Drunkard{PPause: 0, M: 2}
	st, err := m.NewState(xrand.New(17), reg, 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 200; step++ {
		before := append([]geom.Point(nil), st.Positions()...)
		st.Step()
		for i, p := range st.Positions() {
			if d := geom.Dist(before[i], p); d > 2+1e-9 {
				t.Fatalf("step %d node %d: jump %v exceeds M=2", step, i, d)
			}
		}
	}
}

func TestDrunkardPPauseOneNeverMoves(t *testing.T) {
	reg := geom.MustRegion(100, 2)
	m := Drunkard{PPause: 1, M: 5}
	st, err := m.NewState(xrand.New(19), reg, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]geom.Point(nil), st.Positions()...)
	for i := 0; i < 50; i++ {
		st.Step()
	}
	for i, p := range st.Positions() {
		if p != before[i] {
			t.Fatalf("node %d moved with PPause=1", i)
		}
	}
}

func TestDrunkardPauseFraction(t *testing.T) {
	// With PPause=0.3 about 30% of the node-steps should be pauses.
	reg := geom.MustRegion(1000, 2)
	m := Drunkard{PPause: 0.3, M: 1}
	st, err := m.NewState(xrand.New(23), reg, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	paused, total := 0, 0
	for step := 0; step < 200; step++ {
		before := append([]geom.Point(nil), st.Positions()...)
		st.Step()
		for i, p := range st.Positions() {
			total++
			if p == before[i] {
				paused++
			}
		}
	}
	frac := float64(paused) / float64(total)
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("pause fraction = %v, want ~0.3", frac)
	}
}

func TestDrunkardLargeStepRadiusStaysInside(t *testing.T) {
	// M comparable to the region: the rejection loop must still terminate
	// and keep nodes inside.
	reg := geom.MustRegion(10, 2)
	m := Drunkard{PPause: 0, M: 50}
	st, err := m.NewState(xrand.New(29), reg, 20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 100; step++ {
		st.Step()
		for i, p := range st.Positions() {
			if !reg.Contains(p) {
				t.Fatalf("node %d escaped: %v", i, p)
			}
		}
	}
}

func TestRandomDirectionTravelsStraight(t *testing.T) {
	reg := geom.MustRegion(1e6, 2) // huge region: no boundary interaction
	m := RandomDirection{VMin: 1, VMax: 1, PauseSteps: 0}
	st, err := m.NewState(xrand.New(31), reg, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	p0 := append([]geom.Point(nil), st.Positions()...)
	st.Step()
	p1 := append([]geom.Point(nil), st.Positions()...)
	st.Step()
	p2 := st.Positions()
	for i := range p2 {
		d01 := p1[i].Add(p0[i].Scale(-1))
		d12 := p2[i].Add(p1[i].Scale(-1))
		if geom.Dist(d01, d12) > 1e-9 {
			t.Fatalf("node %d direction changed mid-flight: %v vs %v", i, d01, d12)
		}
	}
}

func TestValidation(t *testing.T) {
	cases := []struct {
		name string
		m    Model
	}{
		{"waypoint negative vmin", RandomWaypoint{VMin: -1, VMax: 1}},
		{"waypoint vmax < vmin", RandomWaypoint{VMin: 2, VMax: 1}},
		{"waypoint zero vmax", RandomWaypoint{VMin: 0, VMax: 0}},
		{"waypoint negative pause", RandomWaypoint{VMin: 0, VMax: 1, PauseSteps: -1}},
		{"waypoint bad pstationary", RandomWaypoint{VMin: 0, VMax: 1, PStationary: 1.5}},
		{"drunkard bad ppause", Drunkard{PPause: -0.1, M: 1}},
		{"drunkard zero m", Drunkard{M: 0}},
		{"drunkard bad pstationary", Drunkard{PStationary: 2, M: 1}},
		{"direction vmax < vmin", RandomDirection{VMin: 3, VMax: 2}},
		{"gaussmarkov alpha 1", GaussMarkov{Alpha: 1, MeanSpeed: 1, Sigma: 1}},
		{"gaussmarkov negative alpha", GaussMarkov{Alpha: -0.1, MeanSpeed: 1}},
		{"gaussmarkov zero speed", GaussMarkov{Alpha: 0.5, MeanSpeed: 0}},
		{"gaussmarkov negative sigma", GaussMarkov{Alpha: 0.5, MeanSpeed: 1, Sigma: -1}},
		{"gaussmarkov bad pstationary", GaussMarkov{Alpha: 0.5, MeanSpeed: 1, PStationary: -0.5}},
		{"rpgm zero groups", RPGM{Groups: 0, VMin: 0, VMax: 1}},
		{"rpgm negative radius", RPGM{Groups: 2, GroupRadius: -1, VMin: 0, VMax: 1}},
		{"rpgm negative jitter", RPGM{Groups: 2, Jitter: -1, VMin: 0, VMax: 1}},
		{"rpgm vmax < vmin", RPGM{Groups: 2, VMin: 2, VMax: 1}},
	}
	reg := geom.MustRegion(10, 2)
	for _, c := range cases {
		if err := c.m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", c.name)
		}
		if _, err := c.m.NewState(xrand.New(1), reg, 5, nil); err == nil {
			t.Errorf("%s: NewState accepted bad config", c.name)
		}
	}
}

func TestNegativeNodeCountRejected(t *testing.T) {
	reg := geom.MustRegion(10, 2)
	for _, m := range allModels(reg.L) {
		if _, err := m.NewState(xrand.New(1), reg, -1, nil); err == nil {
			t.Errorf("%s: accepted negative node count", m.Name())
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	reg := geom.MustRegion(100, 2)
	for _, m := range allModels(reg.L) {
		a, err := m.NewState(xrand.New(123), reg, 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := m.NewState(xrand.New(123), reg, 20, nil)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 100; step++ {
			a.Step()
			b.Step()
		}
		pa, pb := a.Positions(), b.Positions()
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("%s: runs with equal seeds diverged at node %d", m.Name(), i)
			}
		}
	}
}

func TestPaperConfigurations(t *testing.T) {
	w := PaperWaypoint(4096)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.VMin != 0.1 || w.VMax != 40.96 || w.PauseSteps != 2000 || w.PStationary != 0 {
		t.Fatalf("PaperWaypoint(4096) = %+v", w)
	}
	d := PaperDrunkard(4096)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.PStationary != 0.1 || d.PPause != 0.3 || d.M != 40.96 {
		t.Fatalf("PaperDrunkard(4096) = %+v", d)
	}
}

func TestModelNames(t *testing.T) {
	want := map[string]Model{
		"stationary": Stationary{},
		"waypoint":   RandomWaypoint{},
		"drunkard":   Drunkard{},
		"direction":  RandomDirection{},
	}
	for name, m := range want {
		if m.Name() != name {
			t.Errorf("Name() = %q, want %q", m.Name(), name)
		}
	}
}

func BenchmarkWaypointStep128(b *testing.B) {
	reg := geom.MustRegion(16384, 2)
	m := PaperWaypoint(reg.L)
	st, err := m.NewState(xrand.New(1), reg, 128, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}

func BenchmarkDrunkardStep128(b *testing.B) {
	reg := geom.MustRegion(16384, 2)
	m := PaperDrunkard(reg.L)
	st, err := m.NewState(xrand.New(1), reg, 128, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step()
	}
}
