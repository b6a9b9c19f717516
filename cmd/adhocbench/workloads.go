package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"adhocnet/internal/core"
	"adhocnet/internal/experiments"
	"adhocnet/internal/obs"
	"adhocnet/internal/scenario"
)

// benchWorkers is the simulation parallelism of every workload. It matches
// the two cores of the reference machine, so the numbers measure the program
// and not the scheduler of an oversubscribed box.
const benchWorkers = 2

type kind int

const (
	kindFigs      kind = iota // experiments fig2 then fig3
	kindRanges                // core.EstimateRanges over the spec's targets
	kindStructure             // core.EvaluateStructure at the spec's single radius
)

// workload is one named benchmark input. Its definition is a JSON document:
// a scenario.Spec, or a figsSpec for kindFigs. Decoding and building that
// document is the workload's set-up.
type workload struct {
	name string
	kind kind
	spec string
	// smokeIterations and smokeSteps replace the spec's effort under -smoke.
	// Each keeps the workload on its full-effort scheduler path (pooled or
	// sequential, kinetic or rebuild).
	smokeIterations, smokeSteps int
	// digest is the SHA-256 of the result at the spec's seed and full effort.
	// Results are bit-identical across workers, spatial backends and kinetic
	// modes, so one digest pins the answer of every configuration.
	digest string
}

// workloads lists the benchmark's inputs in run order. README.md records why
// each was chosen and which per-layer metrics it should move.
var workloads = []workload{
	{
		name: "paper-figs",
		kind: kindFigs,
		spec: `{"iterations": 16, "steps": 1000, "stationary_samples": 400,
			"sides": [256, 1024, 4096, 16384], "quantile": 0.99, "seed": 1, "workers": 2}`,
		smokeIterations: 2, smokeSteps: 8,
		digest: "29d3c7ea4f4787fcf4b4fe7c0673d3f4f3733cef4a46b83dd9241fafcf9b8be5",
	},
	{
		name: "uniform-16k",
		kind: kindRanges,
		spec: `{"name": "uniform-16k", "region": {"l": 268435456}, "nodes": 16384,
			"mobility": {"kind": "drunkard", "pstationary": 0, "ppause": 0, "m": 13421772.8},
			"run": {"iterations": 1, "steps": 160, "seed": 29, "workers": 2},
			"targets": {"time": [1, 0.9, 0.1, 0], "component": [0.9, 0.75, 0.5]}}`,
		smokeIterations: 1, smokeSteps: 3,
		digest: "adec13cd51821348daaed2e4fcf3d49151215a4dd2e6cf3183d88daf12201eda",
	},
	{
		name: "kinetic-drift",
		kind: kindRanges,
		spec: `{"name": "kinetic-drift", "region": {"l": 4096}, "nodes": 8192,
			"mobility": {"kind": "drunkard", "pstationary": 0, "ppause": 0.98, "m": 8.192},
			"run": {"iterations": 1, "steps": 512, "seed": 41, "workers": 2, "kinetic": "on"},
			"targets": {"time": [1, 0.9]}}`,
		smokeIterations: 1, smokeSteps: 8,
		digest: "fb9ba59a3fe87dbdae36219f33bbf47aa8fe3d63c29413ae4b10b136035bc1f8",
	},
	{
		name: "clustered-islands",
		kind: kindRanges,
		spec: `{"name": "clustered-islands", "region": {"l": 16384}, "nodes": 4096,
			"placement": {"kind": "clusters", "clusters": 8, "radius": 600},
			"mobility": {"kind": "drunkard", "pstationary": 0.4, "ppause": 0.5, "m": 40},
			"run": {"iterations": 16, "steps": 48, "seed": 7, "workers": 2, "kinetic": "auto"},
			"targets": {"time": [1, 0.9, 0.1, 0], "component": [0.9, 0.75, 0.5]}}`,
		smokeIterations: 2, smokeSteps: 2,
		digest: "149b588f66a27621489bb21530b53ffddcaeae50de219bc288ad3e8b75839c0e",
	},
	{
		name: "structure-fleet",
		kind: kindStructure,
		spec: `{"name": "structure-fleet", "region": {"l": 4096}, "nodes": 512,
			"mobility": {"kind": "waypoint", "pstationary": 0.5},
			"run": {"iterations": 8, "steps": 64, "seed": 17, "workers": 2},
			"radii": [400]}`,
		smokeIterations: 2, smokeSteps: 4,
		digest: "14299c04743a003a8d741bfa103e116b03a73ad48196c034aaa3d8a5bdd2d647",
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// figsSpec is the JSON form of the experiments preset behind paper-figs.
type figsSpec struct {
	Iterations        int       `json:"iterations"`
	Steps             int       `json:"steps"`
	StationarySamples int       `json:"stationary_samples"`
	Sides             []float64 `json:"sides"`
	Quantile          float64   `json:"quantile"`
	Seed              uint64    `json:"seed"`
	Workers           int       `json:"workers"`
}

// job is a workload made runnable: the decoded, validated and built spec at
// one seed and effort.
type job struct {
	w      *workload
	seed   uint64
	pinned bool // seed and effort are the ones the digest was recorded at
	preset experiments.Preset
	sc     *scenario.Scenario
}

// prepare decodes, validates and builds the workload's spec. seed < 0 keeps
// the spec's seed; smoke shrinks the effort.
func prepare(w *workload, seed int64, smoke bool) (*job, error) {
	j := &job{w: w}
	if w.kind == kindFigs {
		var fs figsSpec
		dec := json.NewDecoder(bytes.NewReader([]byte(w.spec)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&fs); err != nil {
			return nil, fmt.Errorf("%s: decoding spec: %w", w.name, err)
		}
		j.preset = experiments.Preset{
			Name:               w.name,
			Iterations:         fs.Iterations,
			Steps:              fs.Steps,
			StationarySamples:  fs.StationarySamples,
			Sides:              fs.Sides,
			StationaryQuantile: fs.Quantile,
			Seed:               fs.Seed,
			Workers:            fs.Workers,
		}
		if smoke {
			j.preset.Iterations, j.preset.Steps = w.smokeIterations, w.smokeSteps
			j.preset.StationarySamples = 16
		}
		if seed >= 0 {
			j.preset.Seed = uint64(seed)
		}
		j.seed = j.preset.Seed
		j.pinned = !smoke && j.seed == fs.Seed
		if err := j.preset.Validate(); err != nil {
			return nil, err
		}
		return j, nil
	}
	spec, err := scenario.Decode([]byte(w.spec))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	specSeed := spec.Run.SeedValue()
	if smoke {
		spec.Run.Iterations, spec.Run.Steps = w.smokeIterations, w.smokeSteps
	}
	if seed >= 0 {
		s := uint64(seed)
		spec.Run.Seed = &s
	}
	if j.sc, err = scenario.Default().Build(spec); err != nil {
		return nil, err
	}
	j.seed = j.sc.Config.Seed
	j.pinned = !smoke && j.seed == specSeed
	return j, nil
}

// nodes is the largest network size the job simulates.
func (j *job) nodes() int {
	if j.w.kind == kindFigs {
		return figNodes(j.preset.Sides[len(j.preset.Sides)-1])
	}
	return j.sc.Network.Nodes
}

// snapshots is the number of snapshot evaluations one run performs through
// the scheduler, the count adhocnet_scheduler_eval_ns observes.
func (j *job) snapshots() int {
	if j.w.kind == kindFigs {
		return len(figModels) * len(j.preset.Sides) * j.preset.Iterations * j.preset.Steps
	}
	return j.sc.Config.Iterations * j.sc.Config.Steps
}

// run performs the workload once and returns the digest of its result. reg,
// when non-nil, receives the run's telemetry. The error reports a failed run
// or a result that breaks the workload's invariants.
func (j *job) run(ctx context.Context, reg *obs.Registry) (string, error) {
	switch j.w.kind {
	case kindFigs:
		p := j.preset
		p.Obs = reg
		h := sha256.New()
		for _, fig := range figModels {
			e, err := experiments.ByID(fig.id)
			if err != nil {
				return "", err
			}
			res, err := e.Run(p)
			if err != nil {
				return "", err
			}
			if err := checkFigure(res, len(p.Sides)); err != nil {
				return "", fmt.Errorf("%s: %w", fig.id, err)
			}
			for _, t := range res.Tables {
				h.Write([]byte(t.Markdown()))
			}
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	case kindRanges:
		cfg := j.sc.Config
		cfg.Obs = reg
		est, err := core.EstimateRanges(ctx, j.sc.Network, cfg, j.sc.Targets)
		if err != nil {
			return "", err
		}
		if err := checkRanges(est, cfg.Iterations); err != nil {
			return "", err
		}
		return digestRanges(est), nil
	default:
		cfg := j.sc.Config
		cfg.Obs = reg
		res, err := core.EvaluateStructure(ctx, j.sc.Network, cfg, j.sc.Radii[0])
		if err != nil {
			return "", err
		}
		if err := checkStructure(res, j.snapshots()); err != nil {
			return "", err
		}
		return digestStructure(res), nil
	}
}

// checker verifies every rep of one job: at the pinned seed and effort the
// digest must equal the recorded one; otherwise every rep must reproduce the
// first rep's digest (the per-rep invariants are checked by job.run).
type checker struct {
	j     *job
	first string
}

func (c *checker) check(digest string) error {
	if c.j.pinned && digest != c.j.w.digest {
		return fmt.Errorf("%s: result digest %s, want %s", c.j.w.name, digest, c.j.w.digest)
	}
	if c.first == "" {
		c.first = digest
		return nil
	}
	if digest != c.first {
		return fmt.Errorf("%s: result digest %s differs from the first rep's %s", c.j.w.name, digest, c.first)
	}
	return nil
}

// digestRanges hashes a canonical encoding of the estimates: every target,
// per-iteration value and summary moment as IEEE-754 bits.
func digestRanges(e core.RangeEstimates) string {
	var b []byte
	for _, set := range [][]core.Estimate{e.Time, e.Component} {
		b = binary.BigEndian.AppendUint64(b, uint64(len(set)))
		for _, est := range set {
			b = appendFloats(b, est.Target)
			b = binary.BigEndian.AppendUint64(b, uint64(len(est.PerIteration)))
			b = appendFloats(b, est.PerIteration...)
			b = appendFloats(b, est.Mean, est.Std, est.Min, est.Max)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func digestStructure(s core.StructureResult) string {
	b := appendFloats(nil, s.Radius, s.MeanDegree, s.MeanIsolated, s.IsolatedOnlyFraction,
		s.MeanDiameter, s.MeanHops, s.MeanArticulation, s.BiconnectedFraction)
	b = binary.BigEndian.AppendUint64(b, uint64(s.Snapshots))
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func appendFloats(b []byte, vs ...float64) []byte {
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// checkRanges checks what holds for any seed: one finite, non-negative value
// per iteration, ranges non-increasing as the time or component target falls
// (r_100 >= r_90 >= r_10 >= r_0), and no component range above r_100.
func checkRanges(e core.RangeEstimates, iterations int) error {
	for _, set := range [][]core.Estimate{e.Time, e.Component} {
		for _, est := range set {
			if est.Target < 0 || est.Target > 1 {
				return fmt.Errorf("target %v outside [0,1]", est.Target)
			}
			if len(est.PerIteration) != iterations {
				return fmt.Errorf("target %v: %d per-iteration values, want %d", est.Target, len(est.PerIteration), iterations)
			}
			for i, v := range est.PerIteration {
				if !(v >= 0) || math.IsInf(v, 0) {
					return fmt.Errorf("target %v: iteration %d range %v", est.Target, i, v)
				}
			}
		}
		byTarget := append([]core.Estimate(nil), set...)
		sort.Slice(byTarget, func(a, b int) bool { return byTarget[a].Target > byTarget[b].Target })
		for k := 1; k < len(byTarget); k++ {
			for i := 0; i < iterations; i++ {
				if byTarget[k].PerIteration[i] > byTarget[k-1].PerIteration[i] {
					return fmt.Errorf("iteration %d: range for target %v exceeds the range for target %v",
						i, byTarget[k].Target, byTarget[k-1].Target)
				}
			}
		}
	}
	r100, err := e.TimeFraction(1)
	if err != nil {
		return nil
	}
	for _, est := range e.Component {
		for i, v := range est.PerIteration {
			if v > r100.PerIteration[i] {
				return fmt.Errorf("iteration %d: component range r_l%v above r_100", i, est.Target)
			}
		}
	}
	return nil
}

func checkStructure(s core.StructureResult, snapshots int) error {
	if s.Snapshots != snapshots {
		return fmt.Errorf("%d snapshots evaluated, want %d", s.Snapshots, snapshots)
	}
	if !(s.BiconnectedFraction >= 0 && s.BiconnectedFraction <= 1) {
		return fmt.Errorf("biconnected fraction %v outside [0,1]", s.BiconnectedFraction)
	}
	// NaN means no snapshot was disconnected.
	if f := s.IsolatedOnlyFraction; !math.IsNaN(f) && (f < 0 || f > 1) {
		return fmt.Errorf("isolated-only fraction %v outside [0,1]", f)
	}
	for _, v := range []float64{s.MeanDegree, s.MeanIsolated, s.MeanDiameter, s.MeanHops, s.MeanArticulation} {
		if !(v >= 0) || math.IsInf(v, 0) {
			return fmt.Errorf("structure mean %v is not a finite non-negative number", v)
		}
	}
	return nil
}

// checkFigure checks a figure-2/3 table: one row per side, and per row
// r100/rs >= r90/rs >= r10/rs >= r0/rs > 0 with the whole-set extremes
// outside the means. The cells are rounded to four digits, which keeps these
// non-strict orders.
func checkFigure(res *experiments.Result, sides int) error {
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != sides {
		return fmt.Errorf("want one table with %d rows", sides)
	}
	for _, row := range res.Tables[0].Rows {
		if len(row) != 9 {
			return fmt.Errorf("row %v: want 9 cells", row)
		}
		v := make([]float64, len(row))
		for i, cell := range row {
			f, err := strconv.ParseFloat(cell, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) {
				return fmt.Errorf("row %v: cell %q is not a positive number", row, cell)
			}
			v[i] = f
		}
		r100, r90, r10, r0, r100max, r0min := v[3], v[4], v[5], v[6], v[7], v[8]
		if !(r100 >= r90 && r90 >= r10 && r10 >= r0 && r100max >= r100 && r0min <= r0) {
			return fmt.Errorf("row %v: ratios out of order", row)
		}
	}
	return nil
}
