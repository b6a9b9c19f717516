package scenario

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"adhocnet/internal/geom"
	"adhocnet/internal/mobility"
)

// MobilityFactory builds a mobility model from a part's raw JSON object
// (which includes the "kind" field). The region is provided so parameter
// defaults can scale with the system size, as the paper's do (v_max and m
// default to 0.01*l).
type MobilityFactory func(reg geom.Region, raw []byte) (mobility.Model, error)

// PlacementFactory builds a placement the same way.
type PlacementFactory func(reg geom.Region, raw []byte) (mobility.Placement, error)

// Registry resolves part kinds to factories. It is the single source of
// truth for which models and placements exist: the JSON engine, the CLIs'
// -model/-placement flags, and the experiments all look up here, so a new
// kind registered once is immediately available everywhere with one shared
// "unknown kind" error message.
type Registry struct {
	mobility  map[string]MobilityFactory
	placement map[string]PlacementFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		mobility:  make(map[string]MobilityFactory),
		placement: make(map[string]PlacementFactory),
	}
}

// RegisterMobility adds (or replaces) a mobility kind.
func (r *Registry) RegisterMobility(kind string, f MobilityFactory) {
	r.mobility[kind] = f
}

// RegisterPlacement adds (or replaces) a placement kind.
func (r *Registry) RegisterPlacement(kind string, f PlacementFactory) {
	r.placement[kind] = f
}

// MobilityKinds returns the registered mobility kinds, sorted.
func (r *Registry) MobilityKinds() []string {
	return sortedKeys(r.mobility)
}

// PlacementKinds returns the registered placement kinds, sorted.
func (r *Registry) PlacementKinds() []string {
	return sortedKeys(r.placement)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// BuildMobility resolves and builds the mobility model of a part spec.
func (r *Registry) BuildMobility(reg geom.Region, p PartSpec) (mobility.Model, error) {
	f, ok := r.mobility[p.Kind]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown mobility model %q (known: %s)",
			p.Kind, strings.Join(r.MobilityKinds(), ", "))
	}
	m, err := f(reg, p.params())
	if err != nil {
		return nil, fmt.Errorf("scenario: mobility %q: %w", p.Kind, err)
	}
	return m, nil
}

// BuildPlacement resolves and builds the placement of a part spec.
func (r *Registry) BuildPlacement(reg geom.Region, p PartSpec) (mobility.Placement, error) {
	f, ok := r.placement[p.Kind]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown placement %q (known: %s)",
			p.Kind, strings.Join(r.PlacementKinds(), ", "))
	}
	pl, err := f(reg, p.params())
	if err != nil {
		return nil, fmt.Errorf("scenario: placement %q: %w", p.Kind, err)
	}
	return pl, nil
}

// params returns the raw object the factory decodes; a PartSpec built by
// Part (or a zero value with only Kind set) yields the kind-only object.
func (p PartSpec) params() []byte {
	if len(p.raw) > 0 {
		return p.raw
	}
	return Part(p.Kind).raw
}

// Default returns the registry with every built-in kind:
//
//	mobility:  stationary, waypoint, drunkard, direction, gaussmarkov, rpgm
//	placement: uniform, hotspots, clusters, edge
//
// Parameter defaults follow the paper's Section 4.2 operating points where
// one exists (waypoint defaults to PaperWaypoint, drunkard to
// PaperDrunkard); scale-dependent defaults are fractions of the region side
// l. scenarios/README.md documents every kind's schema.
func Default() *Registry {
	r := NewRegistry()
	r.RegisterMobility("stationary", func(reg geom.Region, raw []byte) (mobility.Model, error) {
		var p struct {
			Kind string `json:"kind"`
		}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		return mobility.Stationary{}, nil
	})
	r.RegisterMobility("waypoint", func(reg geom.Region, raw []byte) (mobility.Model, error) {
		def := mobility.PaperWaypoint(reg.L)
		p := struct {
			Kind        string  `json:"kind"`
			VMin        float64 `json:"vmin"`
			VMax        float64 `json:"vmax"`
			Pause       int     `json:"pause"`
			PStationary float64 `json:"pstationary"`
		}{VMin: def.VMin, VMax: def.VMax, Pause: def.PauseSteps, PStationary: def.PStationary}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		return mobility.RandomWaypoint{VMin: p.VMin, VMax: p.VMax, PauseSteps: p.Pause, PStationary: p.PStationary}, nil
	})
	r.RegisterMobility("drunkard", func(reg geom.Region, raw []byte) (mobility.Model, error) {
		def := mobility.PaperDrunkard(reg.L)
		p := struct {
			Kind        string  `json:"kind"`
			PStationary float64 `json:"pstationary"`
			PPause      float64 `json:"ppause"`
			M           float64 `json:"m"`
		}{PStationary: def.PStationary, PPause: def.PPause, M: def.M}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		return mobility.Drunkard{PStationary: p.PStationary, PPause: p.PPause, M: p.M}, nil
	})
	r.RegisterMobility("direction", func(reg geom.Region, raw []byte) (mobility.Model, error) {
		def := mobility.PaperWaypoint(reg.L) // same speed/pause defaults as waypoint
		p := struct {
			Kind        string  `json:"kind"`
			VMin        float64 `json:"vmin"`
			VMax        float64 `json:"vmax"`
			Pause       int     `json:"pause"`
			PStationary float64 `json:"pstationary"`
		}{VMin: def.VMin, VMax: def.VMax, Pause: def.PauseSteps, PStationary: def.PStationary}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		return mobility.RandomDirection{VMin: p.VMin, VMax: p.VMax, PauseSteps: p.Pause, PStationary: p.PStationary}, nil
	})
	r.RegisterMobility("gaussmarkov", func(reg geom.Region, raw []byte) (mobility.Model, error) {
		// Sigma's default depends on the decoded speed, so absence is
		// detected with a pointer: an explicit bad value (e.g. -2) must
		// reach mobility's Validate, not be silently replaced.
		p := struct {
			Kind        string   `json:"kind"`
			Alpha       float64  `json:"alpha"`
			Speed       float64  `json:"speed"`
			Sigma       *float64 `json:"sigma"`
			PStationary float64  `json:"pstationary"`
		}{Alpha: 0.85, Speed: 0.01 * reg.L}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		sigma := 0.25 * p.Speed
		if p.Sigma != nil {
			sigma = *p.Sigma
		}
		return mobility.GaussMarkov{Alpha: p.Alpha, MeanSpeed: p.Speed, Sigma: sigma, PStationary: p.PStationary}, nil
	})
	r.RegisterMobility("rpgm", func(reg geom.Region, raw []byte) (mobility.Model, error) {
		p := struct {
			Kind   string   `json:"kind"`
			Groups int      `json:"groups"`
			Radius *float64 `json:"radius"`
			Jitter *float64 `json:"jitter"`
			VMin   float64  `json:"vmin"`
			VMax   float64  `json:"vmax"`
			Pause  int      `json:"pause"`
		}{Groups: 4, VMin: 0.1, VMax: 0.01 * reg.L}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		radius, jitter := 0.05*reg.L, 0.01*reg.L
		if p.Radius != nil {
			radius = *p.Radius
		}
		if p.Jitter != nil {
			jitter = *p.Jitter
		}
		return mobility.RPGM{Groups: p.Groups, GroupRadius: radius, Jitter: jitter,
			VMin: p.VMin, VMax: p.VMax, PauseSteps: p.Pause}, nil
	})

	r.RegisterPlacement("uniform", func(reg geom.Region, raw []byte) (mobility.Placement, error) {
		var p struct {
			Kind string `json:"kind"`
		}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		return mobility.Uniform{}, nil
	})
	r.RegisterPlacement("hotspots", func(reg geom.Region, raw []byte) (mobility.Placement, error) {
		p := struct {
			Kind     string   `json:"kind"`
			Hotspots int      `json:"hotspots"`
			Sigma    *float64 `json:"sigma"`
		}{Hotspots: 3}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		sigma := 0.1 * reg.L
		if p.Sigma != nil {
			sigma = *p.Sigma
		}
		return mobility.GaussianHotspots{Hotspots: p.Hotspots, Sigma: sigma}, nil
	})
	r.RegisterPlacement("clusters", func(reg geom.Region, raw []byte) (mobility.Placement, error) {
		p := struct {
			Kind     string   `json:"kind"`
			Clusters int      `json:"clusters"`
			Radius   *float64 `json:"radius"`
		}{Clusters: 4}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		radius := 0.1 * reg.L
		if p.Radius != nil {
			radius = *p.Radius
		}
		return mobility.Clusters{Clusters: p.Clusters, Radius: radius}, nil
	})
	r.RegisterPlacement("edge", func(reg geom.Region, raw []byte) (mobility.Placement, error) {
		p := struct {
			Kind  string  `json:"kind"`
			Power float64 `json:"power"`
		}{Power: 3}
		if err := decodeStrict(raw, &p); err != nil {
			return nil, err
		}
		return mobility.EdgeConcentrated{Power: p.Power}, nil
	})
	return r
}

// ModelFlags carries adhocsim's mobility flags.
// A negative VMax or M means "use the scale-dependent default 0.01*l",
// matching the historical CLI behavior. Set holds the flag names the user
// passed explicitly ("vmin", "vmax", "tpause", "pstationary", "ppause",
// "m"); when non-nil, MobilityPart rejects explicit flags the chosen model
// does not consume instead of silently ignoring them.
type ModelFlags struct {
	VMin        float64
	VMax        float64
	Pause       int
	PStationary float64
	PPause      float64
	M           float64
	Set         map[string]bool
}

// modelFlagUse maps each kind to the CLI flags it consumes; kinds absent
// here (stationary, future registry entries) consume none.
var modelFlagUse = map[string][]string{
	"waypoint":    {"vmin", "vmax", "tpause", "pstationary"},
	"direction":   {"vmin", "vmax", "tpause", "pstationary"},
	"drunkard":    {"pstationary", "ppause", "m"},
	"gaussmarkov": {"pstationary"},
	"rpgm":        {"vmin", "vmax", "tpause"},
}

// checkFlagUse returns an error naming every explicitly-set flag the kind
// ignores, mirroring the -scenario mode's shadowed-flag rejection.
func checkFlagUse(kind string, set map[string]bool) error {
	var ignored []string
	for _, name := range []string{"vmin", "vmax", "tpause", "pstationary", "ppause", "m"} {
		if set[name] && !slices.Contains(modelFlagUse[kind], name) {
			ignored = append(ignored, "-"+name)
		}
	}
	if len(ignored) > 0 {
		return fmt.Errorf("scenario: flags %s do not apply to mobility model %q",
			strings.Join(ignored, ", "), kind)
	}
	return nil
}

// MobilityPart turns a CLI -model flag and the shared mobility flags into
// the mobility part of a spec, as if it had been written in a spec file.
// Every parameter the kind consumes is written out, defaults included,
// because the flag defaults differ from the registry's (drunkard -pstationary
// defaults to 0, the registry's drunkard to 0.1); the rest stays at registry
// defaults. An unknown kind yields a kind-only part, which BuildMobility
// rejects with the registry's shared error message. This is adhocsim's
// single flags->model path.
func (r *Registry) MobilityPart(l float64, kind string, f ModelFlags) (PartSpec, error) {
	if _, known := r.mobility[kind]; !known {
		return Part(kind), nil
	}
	if err := checkFlagUse(kind, f.Set); err != nil {
		return PartSpec{}, err
	}
	if f.VMax < 0 {
		f.VMax = 0.01 * l
	}
	if f.M < 0 {
		f.M = 0.01 * l
	}
	values := map[string]any{"vmin": f.VMin, "vmax": f.VMax, "pause": f.Pause,
		"pstationary": f.PStationary, "ppause": f.PPause, "m": f.M}
	params := map[string]any{"kind": kind}
	for _, flag := range modelFlagUse[kind] {
		param := flag
		if flag == "tpause" {
			param = "pause"
		}
		params[param] = values[param]
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return PartSpec{}, fmt.Errorf("scenario: mobility %q: %w", kind, err)
	}
	return PartSpec{Kind: kind, raw: raw}, nil
}
