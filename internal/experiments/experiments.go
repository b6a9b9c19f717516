// Package experiments regenerates every figure of the paper's evaluation
// (Figures 2-9) plus validation experiments for the Section 2/3 theory
// (T1-T3) and a few ablations that go beyond the paper. Each experiment is a
// self-contained runner producing tables and plain-text charts; the cmd/repro
// binary and the top-level benchmark harness are thin wrappers around this
// package.
package experiments

import (
	"fmt"
	"math"
	"sort"

	"adhocnet/internal/core"
	"adhocnet/internal/obs"
	"adhocnet/internal/report"
)

// Preset scales the Monte-Carlo effort of the experiments. Quick is sized
// for tests and CI; Paper reproduces the paper's published parameters
// (50 iterations x 10000 mobility steps, l up to 16384).
type Preset struct {
	Name string
	// Iterations and Steps configure every mobile simulation.
	Iterations int
	Steps      int
	// StationarySamples sizes the r_stationary estimation sample.
	StationarySamples int
	// Sides are the region sides l for the system-size sweeps
	// (the paper uses 256, 1024, 4096, 16384 with n = sqrt(l)).
	Sides []float64
	// StationaryQuantile defines r_stationary (see core.RStationary).
	StationaryQuantile float64
	Seed               uint64
	Workers            int
	// Kinetic selects the trajectory-evaluation path (core.KineticMode).
	// Like Workers it is a pure performance knob: every experiment's output
	// is bit-identical across modes. The zero value is auto.
	Kinetic core.KineticMode
	// Obs, when non-nil, receives run telemetry from every simulation an
	// experiment performs (see core.RunConfig.Obs). Observability never
	// perturbs experiment output; nil runs with instrumentation absent.
	Obs *obs.Registry
}

// Quick returns the CI-scale preset.
func Quick() Preset {
	return Preset{
		Name:               "quick",
		Iterations:         8,
		Steps:              400,
		StationarySamples:  400,
		Sides:              []float64{256, 1024, 4096},
		StationaryQuantile: 0.99,
		Seed:               1,
	}
}

// Paper returns the paper-scale preset (Section 4.2: 50 iterations of 10000
// mobility steps each, l from 256 to 16384).
func Paper() Preset {
	return Preset{
		Name:               "paper",
		Iterations:         50,
		Steps:              10000,
		StationarySamples:  2000,
		Sides:              []float64{256, 1024, 4096, 16384},
		StationaryQuantile: 0.99,
		Seed:               1,
	}
}

// Scale returns the beyond-paper preset enabled by the grid-accelerated MST
// pipeline (DESIGN.md): region sides up to 2^20, i.e. node counts up to
// n = sqrt(l) = 1024 — two orders of magnitude past the paper's densities at
// l = 256 — with the iteration/step budget trimmed so a full run stays
// laptop-sized. The point sets probed here match the scaling regimes of the
// critical-connectivity literature (arXiv:0806.2351, arXiv:1303.3783).
func Scale() Preset {
	return Preset{
		Name:               "scale",
		Iterations:         8,
		Steps:              200,
		StationarySamples:  200,
		Sides:              []float64{16384, 65536, 262144, 1048576},
		StationaryQuantile: 0.99,
		Seed:               1,
	}
}

// Sweep returns the preset for the two-level-scheduler scaling sweeps: node
// counts up to n = sqrt(l) = 16384 at the paper-faithful "few iterations,
// many steps" operating point. With Iterations < Workers the scheduler's
// snapshot pool is what keeps every core busy; the ext-sweep experiment
// varies Iterations in {1, 2, 4} across these sides and reports wall-clock
// alongside the range estimates.
func Sweep() Preset {
	return Preset{
		Name:               "sweep",
		Iterations:         4,
		Steps:              128,
		StationarySamples:  64,
		Sides:              []float64{1 << 22, 1 << 24, 1 << 26, 1 << 28},
		StationaryQuantile: 0.99,
		Seed:               1,
	}
}

// Validate checks the preset.
func (p Preset) Validate() error {
	if p.Iterations <= 0 || p.Steps <= 0 || p.StationarySamples <= 0 {
		return fmt.Errorf("experiments: non-positive effort in preset %q", p.Name)
	}
	if len(p.Sides) == 0 {
		return fmt.Errorf("experiments: preset %q has no region sides", p.Name)
	}
	for _, l := range p.Sides {
		if !(l > 1) {
			return fmt.Errorf("experiments: preset %q has invalid side %v", p.Name, l)
		}
	}
	if p.StationaryQuantile <= 0 || p.StationaryQuantile > 1 {
		return fmt.Errorf("experiments: preset %q has invalid quantile %v", p.Name, p.StationaryQuantile)
	}
	return nil
}

// PresetByName returns the named preset ("quick", "paper", "scale" or
// "sweep").
func PresetByName(name string) (Preset, error) {
	switch name {
	case "quick":
		return Quick(), nil
	case "paper":
		return Paper(), nil
	case "scale":
		return Scale(), nil
	case "sweep":
		return Sweep(), nil
	default:
		return Preset{}, fmt.Errorf("experiments: unknown preset %q (want quick, paper, scale or sweep)", name)
	}
}

// nodesForSide returns the paper's node count n = sqrt(l).
func nodesForSide(l float64) int {
	return int(math.Round(math.Sqrt(l)))
}

// seedFor derives a stable per-experiment, per-stage seed from the preset
// seed. fnv-style mixing keeps distinct labels on distinct streams.
func (p Preset) seedFor(label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h ^ (p.Seed * 0x9e3779b97f4a7c15)
}

// config is the RunConfig of one simulation stage: the preset's effort,
// workers, kinetic mode and telemetry, on the stream seedFor(label).
func (p Preset) config(label string) core.RunConfig {
	return core.RunConfig{
		Iterations: p.Iterations,
		Steps:      p.Steps,
		Seed:       p.seedFor(label),
		Workers:    p.Workers,
		Kinetic:    p.Kinetic,
		Obs:        p.Obs,
	}
}

// Result is the output of one experiment run: tables, charts and free-form
// notes (including the paper-expected reference values for comparison).
type Result struct {
	ID     string
	Title  string
	Tables []*report.Table
	Charts []*report.Chart
	Notes  []string
}

// Experiment couples an identifier with its runner.
type Experiment struct {
	ID          string
	Title       string
	Description string
	Run         func(Preset) (*Result, error)
}

// All returns every registered experiment in presentation order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// IDs returns the identifiers of all experiments, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
}

// registry lists all experiments in presentation order. The constructors
// live in figures.go, theory.go and extensions.go; assembling the slice here
// keeps registration explicit (no init side effects).
var registry = []Experiment{
	fig2Experiment(),
	fig3Experiment(),
	fig4Experiment(),
	fig5Experiment(),
	fig6Experiment(),
	fig7Experiment(),
	fig8Experiment(),
	fig9Experiment(),
	t1Experiment(),
	t2Experiment(),
	t3Experiment(),
	extDirectionExperiment(),
	extEnergyExperiment(),
	extQuantileExperiment(),
	extStructureExperiment(),
	extTwoDimTheoryExperiment(),
	extMobilityQuantityExperiment(),
	extRangeAssignExperiment(),
	extDataMuleExperiment(),
	extSweepExperiment(),
	extScenariosExperiment(),
}
