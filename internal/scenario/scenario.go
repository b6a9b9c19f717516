// Package scenario is the declarative workload engine: it composes a
// simulation run from named, registry-resolved parts — deployment region,
// initial-placement distribution, mobility model, network size, and
// Monte-Carlo run parameters — loaded from JSON specs with strict
// validation and defaulting.
//
// The paper's evaluation is one workload shape (uniform placement in
// [0,l]^d, waypoint/drunkard motion); related work shows the scenario *is*
// the result: mobility-model choice materially changes connectivity
// (arXiv:1511.02113) and quality measures must be compared across scenario
// families (arXiv:cs/0504004). This package turns "a workload" from a
// hard-coded Go preset into data: the checked-in library under scenarios/
// holds the paper presets re-expressed as specs plus the beyond-paper
// workloads, and every future workload PR is a JSON file plus, at most, one
// registry entry.
//
// Layering: scenario sits above mobility/geom/core (it builds core.Network
// and core.RunConfig values) and below the CLIs and experiments, which
// resolve model/placement names exclusively through the Registry so that
// every entry point accepts exactly the same kinds with the same error
// messages.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Spec is the JSON scenario description. Unknown fields are rejected
// everywhere (strict decoding), so typos fail loudly instead of silently
// running a different workload.
type Spec struct {
	// Name identifies the scenario in reports; required.
	Name string `json:"name"`
	// Description is free-form documentation; optional.
	Description string `json:"description,omitempty"`
	// Region is the deployment region [0,l]^dim; dim defaults to 2.
	Region RegionSpec `json:"region"`
	// Nodes is the network size n; required.
	Nodes int `json:"nodes"`
	// Placement selects the initial-position distribution; nil means the
	// paper's i.i.d. uniform placement.
	Placement *PartSpec `json:"placement,omitempty"`
	// Mobility selects the motion model; required.
	Mobility PartSpec `json:"mobility"`
	// Run fixes the Monte-Carlo parameters.
	Run RunSpec `json:"run"`
	// Radii requests the paper simulator's fixed-range outputs (connected
	// fraction, largest components) at each transmitting range.
	Radii []float64 `json:"radii,omitempty"`
	// Targets requests transmitting-range estimation (r_100-style values).
	// At least one of Radii and Targets must be present.
	Targets *TargetsSpec `json:"targets,omitempty"`
}

// RegionSpec mirrors geom.Region in the spec schema.
type RegionSpec struct {
	L   float64 `json:"l"`
	Dim int     `json:"dim,omitempty"` // defaults to 2
}

// RunSpec mirrors core.RunConfig in the spec schema. Seed is a pointer so
// an explicit "seed": 0 (a valid xrand seed) stays distinguishable from an
// absent field (which defaults to 1).
type RunSpec struct {
	Iterations int     `json:"iterations"`
	Steps      int     `json:"steps"`
	Seed       *uint64 `json:"seed,omitempty"`    // defaults to 1
	Workers    int     `json:"workers,omitempty"` // 0 = all CPUs
	// Kinetic selects the trajectory-evaluation path: "auto" (default),
	// "on" or "off" (core.ParseKineticMode). A performance knob like
	// Workers: results are bit-identical either way.
	Kinetic string `json:"kinetic,omitempty"`
}

// SeedValue returns the run seed with the absent-field default applied.
func (r RunSpec) SeedValue() uint64 {
	if r.Seed == nil {
		return 1
	}
	return *r.Seed
}

// TargetsSpec mirrors core.RangeTargets in the spec schema.
type TargetsSpec struct {
	// Time are connectivity-time fractions (1 -> r_100, 0.9 -> r_90, ...).
	Time []float64 `json:"time,omitempty"`
	// Component are largest-component-size fractions (0.9 -> r_l90, ...).
	Component []float64 `json:"component,omitempty"`
}

// PartSpec is one registry-resolved part of a scenario: a kind name plus
// kind-specific parameters. The parameters live in the same JSON object as
// "kind" and are decoded strictly by the part's factory, so each kind
// documents and enforces its own schema.
type PartSpec struct {
	Kind string
	raw  json.RawMessage
}

// Part returns a PartSpec of the given kind with every parameter at its
// default — what the CLIs use for flags like -placement hotspots.
func Part(kind string) PartSpec {
	raw, err := json.Marshal(struct {
		Kind string `json:"kind"`
	}{kind})
	if err != nil {
		panic(err) // cannot happen: a string field always marshals
	}
	return PartSpec{Kind: kind, raw: raw}
}

// UnmarshalJSON implements json.Unmarshaler: it records the raw object for
// the factory and extracts the kind for registry lookup.
func (p *PartSpec) UnmarshalJSON(b []byte) error {
	var k struct {
		Kind string `json:"kind"`
	}
	// Phase one of the two-phase decode: only the kind is extracted here;
	// the registry factory re-decodes the recorded raw bytes strictly
	// (decodeStrict) against the kind's parameter struct, which is where
	// unknown fields are rejected.
	//adhoclint:allow strictjson kind extraction; unknown fields are rejected by decodeStrict in the part factory
	if err := json.Unmarshal(b, &k); err != nil {
		return err
	}
	p.Kind = k.Kind
	p.raw = append(p.raw[:0:0], b...)
	return nil
}

// MarshalJSON implements json.Marshaler so decoded specs round-trip.
func (p PartSpec) MarshalJSON() ([]byte, error) {
	if len(p.raw) > 0 {
		return p.raw, nil
	}
	return Part(p.Kind).raw, nil
}

// decodeStrict unmarshals raw into out rejecting unknown fields and
// trailing garbage. out keeps its pre-set values for absent fields, which
// is how every part factory applies defaults.
func decodeStrict(raw []byte, out any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(out); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON value")
	}
	return nil
}

// Decode parses a scenario spec from JSON, strictly: unknown fields,
// malformed values, and trailing bytes are errors. It performs no semantic
// validation; use Validate (or Registry.Build, which validates and builds).
func Decode(data []byte) (Spec, error) {
	var s Spec
	if err := decodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	s.applyDefaults()
	return s, nil
}

// applyDefaults fills the spec-level defaults (part-level defaults belong
// to the part factories; the seed default lives in RunSpec.SeedValue).
func (s *Spec) applyDefaults() {
	if s.Region.Dim == 0 {
		s.Region.Dim = 2
	}
}

// Validate checks the spec's structure: everything that can be verified
// without resolving parts against a registry.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name")
	}
	if !(s.Region.L > 0) || math.IsInf(s.Region.L, 0) {
		return fmt.Errorf("scenario %q: region side must be positive and finite, got %v", s.Name, s.Region.L)
	}
	if s.Region.Dim < 1 || s.Region.Dim > 3 {
		return fmt.Errorf("scenario %q: region dim must be 1, 2 or 3, got %d", s.Name, s.Region.Dim)
	}
	if s.Nodes < 0 {
		return fmt.Errorf("scenario %q: negative node count %d", s.Name, s.Nodes)
	}
	if s.Mobility.Kind == "" {
		return fmt.Errorf("scenario %q: no mobility model", s.Name)
	}
	if s.Placement != nil && s.Placement.Kind == "" {
		return fmt.Errorf("scenario %q: placement has no kind", s.Name)
	}
	if s.Run.Iterations <= 0 {
		return fmt.Errorf("scenario %q: iterations must be positive, got %d", s.Name, s.Run.Iterations)
	}
	if s.Run.Steps <= 0 {
		return fmt.Errorf("scenario %q: steps must be positive, got %d", s.Name, s.Run.Steps)
	}
	if s.Run.Workers < 0 {
		return fmt.Errorf("scenario %q: negative workers %d", s.Name, s.Run.Workers)
	}
	for _, r := range s.Radii {
		if !(r > 0) || math.IsInf(r, 0) {
			return fmt.Errorf("scenario %q: radii must be positive and finite, got %v", s.Name, r)
		}
	}
	for _, f := range s.timeTargets() {
		if f < 0 || f > 1 || math.IsNaN(f) {
			return fmt.Errorf("scenario %q: time target %v outside [0,1]", s.Name, f)
		}
	}
	for _, g := range s.componentTargets() {
		if !(g > 0) || g > 1 {
			return fmt.Errorf("scenario %q: component target %v outside (0,1]", s.Name, g)
		}
	}
	if len(s.Radii) == 0 && len(s.timeTargets()) == 0 && len(s.componentTargets()) == 0 {
		return fmt.Errorf("scenario %q: nothing to evaluate (needs radii and/or targets)", s.Name)
	}
	if len(s.timeTargets()) > 0 || len(s.componentTargets()) > 0 {
		if s.Nodes < 2 {
			return fmt.Errorf("scenario %q: range targets need at least 2 nodes, got %d", s.Name, s.Nodes)
		}
	}
	return nil
}

func (s Spec) timeTargets() []float64 {
	if s.Targets == nil {
		return nil
	}
	return s.Targets.Time
}

func (s Spec) componentTargets() []float64 {
	if s.Targets == nil {
		return nil
	}
	return s.Targets.Component
}

// Identity returns the spec's workload identity, which checkpoint hashes and
// run reports key on: its JSON with the performance-only run fields
// (workers, kinetic) cleared, since results are bit-identical across them,
// re-encoded with sorted object keys so that the order in which a spec file
// lists a part's parameters does not matter. Numbers keep their literal
// text, so no seed or parameter loses precision.
func (s Spec) Identity() (string, error) {
	s.Run.Workers, s.Run.Kinetic = 0, ""
	raw, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("scenario: encoding spec: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return "", fmt.Errorf("scenario: encoding spec: %w", err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("scenario: encoding spec: %w", err)
	}
	return string(canon), nil
}

// ReadSpecFile decodes a spec from a file.
func ReadSpecFile(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: reading spec: %w", err)
	}
	s, err := Decode(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
