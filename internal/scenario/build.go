package scenario

import (
	"fmt"

	"adhocnet/internal/core"
	"adhocnet/internal/geom"
)

// Scenario is a fully resolved, validated, runnable workload: the spec plus
// the core objects built from it. Network and Config flow through the
// two-level scheduler and the zero-alloc snapshot pipeline exactly like
// hand-constructed ones — the engine adds no code path of its own past
// Build.
type Scenario struct {
	Spec    Spec
	Network core.Network
	Config  core.RunConfig
	// Radii are the fixed transmitting ranges to evaluate (may be empty).
	Radii []float64
	// Targets are the range-estimation targets (may be empty).
	Targets core.RangeTargets
}

// Build validates the spec and resolves its parts against the registry.
// A spec with no placement yields a Network with a nil Placement, which is
// bit-identical to the pre-engine uniform code path.
func (r *Registry) Build(spec Spec) (*Scenario, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	reg, err := geom.NewRegion(spec.Region.L, spec.Region.Dim)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	net := core.Network{Nodes: spec.Nodes, Region: reg}
	if net.Model, err = r.BuildMobility(reg, spec.Mobility); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	if spec.Placement != nil {
		if net.Placement, err = r.BuildPlacement(reg, *spec.Placement); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
		}
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	kinetic, err := core.ParseKineticMode(spec.Run.Kinetic)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	sc := &Scenario{
		Spec:    spec,
		Network: net,
		Config: core.RunConfig{
			Iterations: spec.Run.Iterations,
			Steps:      spec.Run.Steps,
			Seed:       spec.Run.SeedValue(),
			Workers:    spec.Run.Workers,
			Kinetic:    kinetic,
		},
		Radii: append([]float64(nil), spec.Radii...),
		Targets: core.RangeTargets{
			TimeFractions:      append([]float64(nil), spec.timeTargets()...),
			ComponentFractions: append([]float64(nil), spec.componentTargets()...),
		},
	}
	if err := sc.Config.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	if err := sc.Targets.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", spec.Name, err)
	}
	return sc, nil
}

// Parse decodes, validates and builds a scenario from JSON in one step.
func (r *Registry) Parse(data []byte) (*Scenario, error) {
	spec, err := Decode(data)
	if err != nil {
		return nil, err
	}
	return r.Build(spec)
}

// PlacementName names the scenario's placement for reports ("uniform" when
// the spec omitted it).
func (s *Scenario) PlacementName() string {
	if s.Network.Placement == nil {
		return "uniform"
	}
	return s.Network.Placement.Name()
}
