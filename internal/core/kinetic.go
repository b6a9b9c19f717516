package core

import "fmt"

// KineticMode selects how the scheduler evaluates the snapshots of one
// trajectory: by rebuilding every spatial structure per snapshot (the
// historical path), or kinetically — each evaluator walks a run of
// consecutive trajectory steps with a persistent workspace, repairing the
// k-d tree and the MST from the previous step's state instead of rebuilding
// them (graph.Workspace.ProfileKinetic). Only the profile entry points
// (EstimateRanges, EvaluateFixedRanges) repair; the communication graph of
// EvaluateStructure and DirectFixedRange is rebuilt per snapshot in every
// mode. A sequential iteration is one such run; the snapshot pool splits
// the trajectory into blocks of consecutive steps, each evaluated as a run
// that starts from a rebuild (see runSnapshotPool).
//
// Like RunConfig.Workers and RunConfig.Spatial this is a pure performance
// knob: the kinetic path is bit-identical to the rebuild path (pinned by
// TestCoreResultsIdenticalAcrossKineticModes and its block-pool sibling
// TestCoreResultsIdenticalOnKineticPool, and by the package fuzz targets),
// so it is excluded from workload identity.
type KineticMode int

const (
	// KineticAuto (the default) uses the kinetic path for multi-step
	// trajectories whose scheduler split gives each iteration a single
	// evaluator (inner == 1). With inner > 1 it keeps the rebuild path: the
	// pooled regime's typical workload moves every node every step, where
	// arming would add a tree-cache prime to each dirty step and repair
	// nothing. Both paths use every evaluator of the split.
	KineticAuto KineticMode = iota
	// KineticOn forces kinetic evaluation for every multi-step trajectory,
	// on the sequential loop and in the snapshot pool alike. Single-snapshot
	// runs (Steps == 1) have nothing to update and always rebuild.
	KineticOn
	// KineticOff forces the rebuild-per-snapshot path everywhere.
	KineticOff
)

// ParseKineticMode parses the CLI spelling of a kinetic mode: "auto", "on"
// or "off".
func ParseKineticMode(s string) (KineticMode, error) {
	switch s {
	case "auto", "":
		return KineticAuto, nil
	case "on":
		return KineticOn, nil
	case "off":
		return KineticOff, nil
	}
	return 0, fmt.Errorf("core: unknown kinetic mode %q (want auto, on or off)", s)
}

func (m KineticMode) String() string {
	switch m {
	case KineticAuto:
		return "auto"
	case KineticOn:
		return "on"
	case KineticOff:
		return "off"
	}
	return fmt.Sprintf("KineticMode(%d)", int(m))
}

// enabled reports whether a trajectory of the given length, evaluated with
// the given inner snapshot-worker budget, should take the kinetic path.
func (m KineticMode) enabled(steps, inner int) bool {
	if steps < 2 {
		return false // a single snapshot has nothing to repair from
	}
	switch m {
	case KineticOn:
		return true
	case KineticAuto:
		return inner <= 1
	}
	return false
}
