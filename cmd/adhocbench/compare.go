package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain prints, for every workload and end-to-end metric of two
// results files, both medians with their quartiles, the relative delta and a
// verdict; then the per-layer deltas, for information. It exits 1 when any
// end-to-end metric is worse beyond its bound.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: adhocbench -compare a.json b.json")
		return 2
	}
	var rs [2]results
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rs[i])
		}
		if err == nil && rs[i].Schema != resultsSchema {
			err = fmt.Errorf("schema %q, want %q", rs[i].Schema, resultsSchema)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "adhocbench: %s: %v\n", path, err)
			return 1
		}
	}
	rows := make(map[string]*row)
	for _, r := range rs[1].Workloads {
		rows[r.Workload] = r
	}
	worse := 0
	for _, a := range rs[0].Workloads {
		b, ok := rows[a.Workload]
		if !ok {
			fmt.Fprintf(w, "== %s: missing from %s ==\n\n", a.Workload, args[1])
			continue
		}
		fmt.Fprintf(w, "== %s (a: %s, b: %s) ==\n", a.Workload, a.Commit, b.Commit)
		fmt.Fprintf(w, "%-20s %-34s %-34s %9s  %s\n", "end-to-end", "a median [q1, q3]", "b median [q1, q3]", "delta", "verdict")
		for _, name := range sortedKeys(a.EndToEnd) {
			sa := a.EndToEnd[name]
			sb, ok := b.EndToEnd[name]
			if !ok {
				fmt.Fprintf(w, "%-20s missing from b\n", name)
				continue
			}
			v := verdict(sa, sb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-20s %-34s %-34s %+8.2f%%  %s\n", name, fmtStat(sa), fmtStat(sb), 100*relDelta(sa.Median, sb.Median), v)
		}
		fmt.Fprintf(w, "%-36s %14s %14s %9s\n", "per-layer", "a", "b", "delta")
		for _, name := range sortedKeys(a.PerLayer) {
			la, lb := a.PerLayer[name], b.PerLayer[name]
			fmt.Fprintf(w, "%-36s %14.6g %14.6g %+8.2f%%\n", name, la.Value, lb.Value, 100*relDelta(la.Value, lb.Value))
		}
		fmt.Fprintln(w)
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d end-to-end metrics worse beyond their bound\n", worse)
		return 1
	}
	return 0
}

// verdict judges b against a with a's bound, a share of a's median. It is
// "unresolved" when either side's quartile spread exceeds the bound, since
// the bound cannot then separate a change from noise.
func verdict(a, b stat) string {
	spread := func(s stat) float64 { return ratio(s.Q3-s.Q1, math.Abs(s.Median)) }
	if a.Bound > 0 && (spread(a) > a.Bound || spread(b) > a.Bound) {
		return "unresolved"
	}
	worse := b.Median - a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	limit := a.Bound * math.Abs(a.Median)
	switch {
	case worse > limit:
		return "worse"
	case worse < -limit:
		return "better"
	}
	return "within bound"
}

func relDelta(a, b float64) float64 { return ratio(b-a, math.Abs(a)) }

func fmtStat(s stat) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
