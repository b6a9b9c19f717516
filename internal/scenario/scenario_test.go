package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
)

const validSpec = `{
  "name": "t",
  "region": {"l": 100, "dim": 2},
  "nodes": 8,
  "placement": {"kind": "clusters", "clusters": 2, "radius": 5},
  "mobility": {"kind": "waypoint", "vmax": 3, "pause": 1},
  "run": {"iterations": 2, "steps": 4, "seed": 9},
  "radii": [20],
  "targets": {"time": [1, 0.9], "component": [0.5]}
}`

func TestDecodeBuildRoundTrip(t *testing.T) {
	sc, err := Default().Parse([]byte(validSpec))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Spec.Name != "t" || sc.Network.Nodes != 8 {
		t.Fatalf("spec fields lost: %+v", sc.Spec)
	}
	if sc.Network.Region != geom.MustRegion(100, 2) {
		t.Fatalf("region wrong: %+v", sc.Network.Region)
	}
	wantModel := mobility.RandomWaypoint{VMin: 0.1, VMax: 3, PauseSteps: 1}
	if sc.Network.Model != wantModel {
		t.Fatalf("model %+v, want %+v (defaults + overrides)", sc.Network.Model, wantModel)
	}
	wantPlace := mobility.Clusters{Clusters: 2, Radius: 5}
	if sc.Network.Placement != wantPlace {
		t.Fatalf("placement %+v, want %+v", sc.Network.Placement, wantPlace)
	}
	if sc.Config.Iterations != 2 || sc.Config.Steps != 4 || sc.Config.Seed != 9 {
		t.Fatalf("run config wrong: %+v", sc.Config)
	}
	if len(sc.Radii) != 1 || sc.Radii[0] != 20 {
		t.Fatalf("radii wrong: %v", sc.Radii)
	}
	if len(sc.Targets.TimeFractions) != 2 || len(sc.Targets.ComponentFractions) != 1 {
		t.Fatalf("targets wrong: %+v", sc.Targets)
	}
}

func TestSpecDefaults(t *testing.T) {
	spec, err := Decode([]byte(`{
	  "name": "d",
	  "region": {"l": 50},
	  "nodes": 4,
	  "mobility": {"kind": "drunkard"},
	  "run": {"iterations": 1, "steps": 1},
	  "radii": [5]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Region.Dim != 2 {
		t.Errorf("dim default: got %d, want 2", spec.Region.Dim)
	}
	if spec.Run.SeedValue() != 1 {
		t.Errorf("seed default: got %d, want 1", spec.Run.SeedValue())
	}
	sc, err := Default().Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// No placement key -> nil Placement, the bit-identical uniform path.
	if sc.Network.Placement != nil {
		t.Errorf("placement should default to nil, got %+v", sc.Network.Placement)
	}
	// Drunkard defaults are the paper's Section 4.2 parameters.
	want := mobility.PaperDrunkard(50)
	if sc.Network.Model != want {
		t.Errorf("drunkard defaults %+v, want paper's %+v", sc.Network.Model, want)
	}
	if sc.PlacementName() != "uniform" {
		t.Errorf("placement name %q, want uniform", sc.PlacementName())
	}
}

func TestExplicitZeroSeedPreserved(t *testing.T) {
	// "seed": 0 is a valid xrand seed and must not be coerced to the
	// absent-field default of 1.
	sc, err := Default().Parse([]byte(`{
	  "name": "z",
	  "region": {"l": 50},
	  "nodes": 4,
	  "mobility": {"kind": "stationary"},
	  "run": {"iterations": 1, "steps": 1, "seed": 0},
	  "radii": [5]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Config.Seed != 0 {
		t.Fatalf("explicit seed 0 coerced to %d", sc.Config.Seed)
	}
}

// modelFromFlags resolves CLI mobility flags the way the CLIs do: through
// the spec part MobilityPart writes, built by the registry.
func modelFromFlags(r *Registry, reg geom.Region, kind string, f ModelFlags) (mobility.Model, error) {
	part, err := r.MobilityPart(reg.L, kind, f)
	if err != nil {
		return nil, err
	}
	return r.BuildMobility(reg, part)
}

func TestModelFromFlagsRejectsInapplicableFlags(t *testing.T) {
	reg := geom.MustRegion(1000, 2)
	r := Default()
	cases := []struct {
		kind string
		set  []string
	}{
		{"rpgm", []string{"pstationary"}},
		{"rpgm", []string{"ppause", "m"}},
		{"gaussmarkov", []string{"vmin"}},
		{"gaussmarkov", []string{"vmax", "tpause"}},
		{"stationary", []string{"vmin"}},
		{"waypoint", []string{"ppause"}},
		{"drunkard", []string{"vmax"}},
	}
	for _, c := range cases {
		set := make(map[string]bool)
		for _, name := range c.set {
			set[name] = true
		}
		_, err := modelFromFlags(r, reg, c.kind, ModelFlags{VMax: -1, M: -1, Set: set})
		if err == nil {
			t.Errorf("%s with explicit %v: inapplicable flags accepted", c.kind, c.set)
		} else if !strings.Contains(err.Error(), "-"+c.set[0]) {
			t.Errorf("%s: error %q does not name the offending flag", c.kind, err)
		}
	}
	// Flags that do apply must still pass, and a nil Set skips the check.
	if _, err := modelFromFlags(r, reg, "rpgm",
		ModelFlags{VMin: 0.5, VMax: -1, M: -1, Set: map[string]bool{"vmin": true}}); err != nil {
		t.Errorf("applicable flag rejected: %v", err)
	}
	if _, err := modelFromFlags(r, reg, "stationary", ModelFlags{VMax: -1, M: -1}); err != nil {
		t.Errorf("nil Set should skip the check: %v", err)
	}
}

func TestScaleDependentDefaults(t *testing.T) {
	// waypoint with no params at l must equal PaperWaypoint(l); gaussmarkov
	// and rpgm defaults must scale with l too.
	reg := geom.MustRegion(2048, 2)
	r := Default()
	m, err := r.BuildMobility(reg, Part("waypoint"))
	if err != nil {
		t.Fatal(err)
	}
	if m != mobility.PaperWaypoint(2048) {
		t.Errorf("waypoint defaults %+v, want %+v", m, mobility.PaperWaypoint(2048))
	}
	gm, err := r.BuildMobility(reg, Part("gaussmarkov"))
	if err != nil {
		t.Fatal(err)
	}
	want := mobility.GaussMarkov{Alpha: 0.85, MeanSpeed: 0.01 * 2048, Sigma: 0.25 * 0.01 * 2048}
	if gm != want {
		t.Errorf("gaussmarkov defaults %+v, want %+v", gm, want)
	}
	rp, err := r.BuildMobility(reg, Part("rpgm"))
	if err != nil {
		t.Fatal(err)
	}
	wantRPGM := mobility.RPGM{Groups: 4, GroupRadius: 0.05 * 2048, Jitter: 0.01 * 2048, VMin: 0.1, VMax: 0.01 * 2048}
	if rp != wantRPGM {
		t.Errorf("rpgm defaults %+v, want %+v", rp, wantRPGM)
	}
}

func TestDecodeRejects(t *testing.T) {
	cases := map[string]string{
		"not json":            `{`,
		"unknown top field":   `{"name":"x","bogus":1,"region":{"l":10},"nodes":2,"mobility":{"kind":"waypoint"},"run":{"iterations":1,"steps":1},"radii":[1]}`,
		"unknown run field":   `{"name":"x","region":{"l":10},"nodes":2,"mobility":{"kind":"waypoint"},"run":{"iterations":1,"steps":1,"bogus":2},"radii":[1]}`,
		"trailing data":       validSpec + `{"again": true}`,
		"wrong mobility type": `{"name":"x","region":{"l":10},"nodes":2,"mobility":"waypoint","run":{"iterations":1,"steps":1},"radii":[1]}`,
	}
	for name, spec := range cases {
		if _, err := Decode([]byte(spec)); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestBuildRejects(t *testing.T) {
	base := func(mutate func(*Spec)) Spec {
		spec, err := Decode([]byte(validSpec))
		if err != nil {
			t.Fatal(err)
		}
		mutate(&spec)
		return spec
	}
	cases := map[string]Spec{
		"no name":           base(func(s *Spec) { s.Name = "" }),
		"bad side":          base(func(s *Spec) { s.Region.L = -5 }),
		"bad dim":           base(func(s *Spec) { s.Region.Dim = 4 }),
		"negative nodes":    base(func(s *Spec) { s.Nodes = -1 }),
		"no mobility":       base(func(s *Spec) { s.Mobility = PartSpec{} }),
		"zero iterations":   base(func(s *Spec) { s.Run.Iterations = 0 }),
		"zero steps":        base(func(s *Spec) { s.Run.Steps = 0 }),
		"negative workers":  base(func(s *Spec) { s.Run.Workers = -2 }),
		"negative radius":   base(func(s *Spec) { s.Radii = []float64{-1} }),
		"bad time target":   base(func(s *Spec) { s.Targets.Time = []float64{1.5} }),
		"bad comp target":   base(func(s *Spec) { s.Targets.Component = []float64{0} }),
		"nothing to eval":   base(func(s *Spec) { s.Radii = nil; s.Targets = nil }),
		"targets 1 node":    base(func(s *Spec) { s.Nodes = 1 }),
		"unknown mobility":  base(func(s *Spec) { s.Mobility = Part("teleport") }),
		"unknown placement": base(func(s *Spec) { p := Part("pile"); s.Placement = &p }),
	}
	r := Default()
	for name, spec := range cases {
		if _, err := r.Build(spec); err == nil {
			t.Errorf("%s: built without error", name)
		}
	}
}

func TestBuildRejectsBadParams(t *testing.T) {
	cases := map[string]string{
		"waypoint unknown param": `{"kind":"waypoint","warp":9}`,
		"waypoint bad speeds":    `{"kind":"waypoint","vmin":5,"vmax":1}`,
		"drunkard zero m":        `{"kind":"drunkard","m":0}`,
		"gaussmarkov alpha 1":    `{"kind":"gaussmarkov","alpha":1}`,
		"rpgm zero groups":       `{"kind":"rpgm","groups":0}`,
		// Explicit negatives must reach Validate, not fall back to the
		// scale-dependent defaults the absent fields would get.
		"gaussmarkov neg sigma": `{"kind":"gaussmarkov","sigma":-2}`,
		"rpgm neg radius":       `{"kind":"rpgm","radius":-1}`,
		"rpgm neg jitter":       `{"kind":"rpgm","jitter":-1}`,
	}
	r := Default()
	for name, part := range cases {
		spec := `{"name":"x","region":{"l":100},"nodes":4,"mobility":` + part +
			`,"run":{"iterations":1,"steps":1},"radii":[1]}`
		if _, err := r.Parse([]byte(spec)); err == nil {
			t.Errorf("%s: built without error", name)
		}
	}
	for name, part := range map[string]string{
		"hotspots zero sigma":  `{"kind":"hotspots","sigma":0}`,
		"hotspots neg sigma":   `{"kind":"hotspots","sigma":-3}`,
		"clusters zero count":  `{"kind":"clusters","clusters":0}`,
		"clusters neg radius":  `{"kind":"clusters","radius":-1}`,
		"edge power below one": `{"kind":"edge","power":0.2}`,
		"placement bad param":  `{"kind":"uniform","weird":true}`,
	} {
		spec := `{"name":"x","region":{"l":100},"nodes":4,"placement":` + part +
			`,"mobility":{"kind":"stationary"},"run":{"iterations":1,"steps":1},"radii":[1]}`
		if _, err := r.Parse([]byte(spec)); err == nil {
			t.Errorf("%s: built without error", name)
		}
	}
}

func TestUnknownKindErrorListsKinds(t *testing.T) {
	r := Default()
	_, err := r.BuildMobility(geom.MustRegion(10, 2), Part("teleport"))
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range r.MobilityKinds() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not list kind %q", err, kind)
		}
	}
	_, err = r.BuildPlacement(geom.MustRegion(10, 2), Part("pile"))
	if err == nil {
		t.Fatal("unknown placement accepted")
	}
	if !strings.Contains(err.Error(), "uniform") {
		t.Errorf("placement error %q does not list kinds", err)
	}
}

func TestModelFromFlagsMatchesLegacySwitch(t *testing.T) {
	reg := geom.MustRegion(1000, 2)
	r := Default()
	flags := ModelFlags{VMin: 0.2, VMax: -1, Pause: 7, PStationary: 0.25, PPause: 0.4, M: -1}
	cases := map[string]mobility.Model{
		"stationary": mobility.Stationary{},
		"waypoint":   mobility.RandomWaypoint{VMin: 0.2, VMax: 10, PauseSteps: 7, PStationary: 0.25},
		"drunkard":   mobility.Drunkard{PStationary: 0.25, PPause: 0.4, M: 10},
		"direction":  mobility.RandomDirection{VMin: 0.2, VMax: 10, PauseSteps: 7, PStationary: 0.25},
	}
	for kind, want := range cases {
		got, err := modelFromFlags(r, reg, kind, flags)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", kind, got, want)
		}
	}
	// The new kinds receive the subset of the shared flags that maps onto
	// them; the rest stays at registry defaults.
	gm, err := modelFromFlags(r, reg, "gaussmarkov", flags)
	if err != nil {
		t.Fatalf("gaussmarkov via flags: %v", err)
	}
	if gm != (mobility.GaussMarkov{Alpha: 0.85, MeanSpeed: 10, Sigma: 2.5, PStationary: 0.25}) {
		t.Errorf("gaussmarkov via flags dropped -pstationary: %+v", gm)
	}
	rp, err := modelFromFlags(r, reg, "rpgm", flags)
	if err != nil {
		t.Fatalf("rpgm via flags: %v", err)
	}
	if rp != (mobility.RPGM{Groups: 4, GroupRadius: 50, Jitter: 10, VMin: 0.2, VMax: 10, PauseSteps: 7}) {
		t.Errorf("rpgm via flags dropped speed/pause flags: %+v", rp)
	}
	// Flag defaults differ from registry defaults: -pstationary 0 must reach
	// the drunkard, not the registry's 0.1.
	dr, err := modelFromFlags(r, reg, "drunkard", ModelFlags{VMin: 0.1, VMax: -1, Pause: 2000, PPause: 0.3, M: -1})
	if err != nil {
		t.Fatalf("drunkard at flag defaults: %v", err)
	}
	if dr != (mobility.Drunkard{PPause: 0.3, M: 10}) {
		t.Errorf("drunkard at flag defaults took registry defaults: %+v", dr)
	}
	if _, err := modelFromFlags(r, reg, "teleport", flags); err == nil {
		t.Error("unknown kind accepted via flags")
	}
}

func TestPartSpecRoundTrip(t *testing.T) {
	var p PartSpec
	if err := json.Unmarshal([]byte(`{"kind":"clusters","clusters":3}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.Kind != "clusters" {
		t.Fatalf("kind %q", p.Kind)
	}
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var q PartSpec
	if err := json.Unmarshal(out, &q); err != nil {
		t.Fatal(err)
	}
	pl, err := Default().BuildPlacement(geom.MustRegion(10, 2), q)
	if err != nil {
		t.Fatal(err)
	}
	if pl != (mobility.Clusters{Clusters: 3, Radius: 1}) {
		t.Fatalf("round-tripped placement %+v", pl)
	}
}
