// Command mobgen generates, inspects and converts mobility traces.
//
//	mobgen gen -model waypoint -l 1000 -n 32 -steps 500 -o trace.bin
//	mobgen info trace.bin
//	mobgen convert -to text trace.bin trace.txt
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"adhocnet/internal/geom"
	"adhocnet/internal/graph"
	"adhocnet/internal/mobility"
	"adhocnet/internal/scenario"
	"adhocnet/internal/stats"
	"adhocnet/internal/trace"
	"adhocnet/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mobgen:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: mobgen <gen|info|convert> [flags]")
	}
	switch args[0] {
	case "gen":
		return genCmd(args[1:], out)
	case "info":
		return infoCmd(args[1:], out)
	case "convert":
		return convertCmd(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want gen, info or convert)", args[0])
	}
}

func genCmd(args []string, out io.Writer) error {
	registry := scenario.Default()
	fs := flag.NewFlagSet("mobgen gen", flag.ContinueOnError)
	var (
		model = fs.String("model", "waypoint",
			"mobility model: "+strings.Join(registry.MobilityKinds(), ", "))
		placement = fs.String("placement", "uniform",
			"initial placement (registry defaults): "+strings.Join(registry.PlacementKinds(), ", "))
		l           = fs.Float64("l", 1000, "region side")
		dim         = fs.Int("d", 2, "region dimension")
		n           = fs.Int("n", 32, "number of nodes")
		steps       = fs.Int("steps", 1000, "snapshots to record")
		seed        = fs.Uint64("seed", 1, "random seed")
		outPath     = fs.String("o", "", "output file (required)")
		text        = fs.Bool("text", false, "write the text format instead of binary")
		vmin        = fs.Float64("vmin", 0.1, "waypoint/direction/rpgm: min speed")
		vmax        = fs.Float64("vmax", -1, "waypoint/direction/rpgm: max speed (default 0.01*l)")
		tpause      = fs.Int("tpause", 2000, "waypoint/direction/rpgm: pause steps")
		pstationary = fs.Float64("pstationary", 0, "waypoint/drunkard/direction/gaussmarkov: fraction of permanently stationary nodes")
		ppause      = fs.Float64("ppause", 0.3, "drunkard: per-step pause probability")
		m           = fs.Float64("m", -1, "drunkard: step radius (default 0.01*l)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("flag -o is required")
	}
	reg, err := geom.NewRegion(*l, *dim)
	if err != nil {
		return err
	}
	explicit := make(map[string]bool)
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	part, err := registry.MobilityPart(*l, *model, scenario.ModelFlags{
		VMin: *vmin, VMax: *vmax, Pause: *tpause,
		PStationary: *pstationary, PPause: *ppause, M: *m,
		Set: explicit,
	})
	if err != nil {
		return err
	}
	mob, err := registry.BuildMobility(reg, part)
	if err != nil {
		return err
	}
	var place mobility.Placement
	if *placement != "uniform" {
		if place, err = registry.BuildPlacement(reg, scenario.Part(*placement)); err != nil {
			return err
		}
	}
	tr, err := trace.Record(mob, reg, *n, *steps, xrand.New(*seed), place)
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if *text {
		err = tr.WriteText(f)
	} else {
		err = tr.WriteBinary(f)
	}
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d nodes x %d snapshots (%s, dim %d) to %s\n",
		tr.Nodes(), tr.Steps(), mob.Name(), *dim, *outPath)
	return nil
}

// readTrace loads a trace in either format (binary first, then text).
func readTrace(path string) (*trace.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if tr, err := trace.ReadBinary(bytes.NewReader(data)); err == nil {
		return tr, nil
	}
	return trace.ReadText(bytes.NewReader(data))
}

func infoCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mobgen info", flag.ContinueOnError)
	radius := fs.Float64("r", 0, "also report connectivity at this transmitting range")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: mobgen info [-r range] <trace-file>")
	}
	tr, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace: %d nodes, %d snapshots, region [0,%g]^%d\n",
		tr.Nodes(), tr.Steps(), tr.Region.L, tr.Region.Dim)

	var crit stats.Accumulator
	connected := 0
	for _, pts := range tr.Positions {
		p := graph.NewProfile(pts)
		crit.Add(p.Critical())
		if *radius > 0 && p.ConnectedAt(*radius) {
			connected++
		}
	}
	fmt.Fprintf(out, "critical radius: mean %.4g, min %.4g, max %.4g\n",
		crit.Mean(), crit.Min(), crit.Max())
	if *radius > 0 {
		fmt.Fprintf(out, "connected at r=%g: %.2f%% of snapshots\n",
			*radius, 100*float64(connected)/float64(tr.Steps()))
	}
	return nil
}

func convertCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mobgen convert", flag.ContinueOnError)
	to := fs.String("to", "text", "target format: text or binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: mobgen convert -to <text|binary> <in> <out>")
	}
	tr, err := readTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	f, err := os.Create(fs.Arg(1))
	if err != nil {
		return err
	}
	defer f.Close()
	switch *to {
	case "text":
		err = tr.WriteText(f)
	case "binary":
		err = tr.WriteBinary(f)
	default:
		return fmt.Errorf("unknown format %q", *to)
	}
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "converted %s -> %s (%s)\n", fs.Arg(0), fs.Arg(1), *to)
	return nil
}
