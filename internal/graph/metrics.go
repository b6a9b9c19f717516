package graph

// Structural metrics of communication graphs beyond bare connectivity. The
// paper motivates them throughout: node degree governs interference and
// capacity (its reference to Gupta-Kumar's capacity result), multi-hop path
// lengths are the defining property of ad hoc networks ("messages typically
// require multiple hops"), and articulation points are the single points of
// failure a dependability evaluation cares about.

import "math/bits"

// Structure holds the structural metrics of one communication graph, as
// computed in a single pass by Workspace.Structure.
type Structure struct {
	Degree DegreeStats
	// Components is the number of connected components and Largest the size
	// of the largest one.
	Components, Largest int
	// IsolatedOnly reports that every component but the largest is a
	// singleton, so removing the isolated nodes leaves one connected
	// component. The paper's Figures 4-5 argue this is the dominant way a
	// network is disconnected at r_90.
	IsolatedOnly bool
	Hops         HopStats
	// Articulation is the number of cut vertices.
	Articulation int
	// Biconnected is IsBiconnected of the graph.
	Biconnected bool
}

// Structure computes every structural metric of a over workspace scratch,
// allocating nothing in steady state. Each metric comes from the same kernel
// as the corresponding Adjacency method, so the results are identical;
// biconnectivity is derived from the component and cut-vertex counts instead
// of recomputing both.
func (ws *Workspace) Structure(a *Adjacency) Structure {
	n := a.N
	var s Structure
	s.Degree = a.DegreeStats()
	s.Components, s.Largest = ws.ComponentSummary(a)
	// A degree-zero node is exactly a singleton component (adjacency lists
	// hold no self-loops), so the rest are the non-singleton components.
	s.IsolatedOnly = s.Components-s.Degree.Isolated <= 1

	ws.seen = grow(ws.seen, n)
	ws.frontier = grow(ws.frontier, n)
	ws.next = grow(ws.next, n)
	s.Hops = hopStatsInto(a, ws.seen, ws.frontier, ws.next)

	ws.disc = grow(ws.disc, n)
	ws.low = grow(ws.low, n)
	ws.isCut = grow(ws.isCut, n)
	ws.frames = grow(ws.frames, n)
	s.Articulation = cutVerticesInto(a, ws.disc, ws.low, ws.isCut, ws.frames)
	s.Biconnected = biconnected(s.Components, s.Articulation)
	return s
}

// DegreeStats summarizes the degree sequence of a graph.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Isolated is the number of degree-zero nodes.
	Isolated int
}

// DegreeStats returns the per-node degree statistics.
func (a *Adjacency) DegreeStats() DegreeStats {
	if a.N == 0 {
		return DegreeStats{}
	}
	ds := DegreeStats{Min: a.N}
	total := 0
	for i := 0; i < a.N; i++ {
		d := a.Degree(i)
		total += d
		if d < ds.Min {
			ds.Min = d
		}
		if d > ds.Max {
			ds.Max = d
		}
		if d == 0 {
			ds.Isolated++
		}
	}
	ds.Mean = float64(total) / float64(a.N)
	return ds
}

// BFSDistances returns the hop distance from start to every node, with -1
// for unreachable nodes.
func (a *Adjacency) BFSDistances(start int) []int32 {
	dist := make([]int32, a.N)
	for i := range dist {
		dist[i] = -1
	}
	if start < 0 || start >= a.N {
		return dist
	}
	dist[start] = 0
	queue := make([]int32, 0, a.N)
	queue = append(queue, int32(start))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range a.Neighbors(int(u)) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// HopStats describes the multi-hop structure of a graph: the diameter (the
// longest shortest path in hops) and the mean shortest-path length, both
// taken over connected node pairs only. Pairs reports how many ordered pairs
// were reachable.
type HopStats struct {
	Diameter int
	MeanHops float64
	Pairs    int
}

// HopStats computes hop statistics with a bit-parallel BFS from all sources
// at once (see hopStatsInto): O(ceil(n/512) * D * (n+m)) operations on
// 512-bit sets for hop diameter D, with 3*n*64 bytes of scratch at any n.
// Graphs with no connected pairs report zero values.
func (a *Adjacency) HopStats() HopStats {
	return hopStatsInto(a, make([]sourceSet, a.N), make([]sourceSet, a.N), make([]sourceSet, a.N))
}

// sourceSet holds one bit per source of a block of the all-sources BFS.
// Its size is fixed, not tuned: it bounds the scratch to 64 bytes per node
// and bitset, and lets the kernel keep a whole set in registers.
type sourceSet [8]uint64

// blockSources is the number of sources one all-sources BFS pass carries.
const blockSources = 64 * len(sourceSet{})

// hopStatsInto is HopStats over caller-provided scratch: seen, frontier and
// next must each have length a.N. Sources are processed in blocks of
// blockSources, and each node holds one bit per source of the block in each
// set. Level k of the BFS computes, for every node v,
//
//	next[v] = (OR over neighbors u of frontier[u]) &^ seen[v]
//
// so a bit set in next[v] is a source at exactly k hops from v. Summing
// k*popcount over the levels gives the same integer hop total, pair count and
// diameter as one BFS per source, hence the same MeanHops.
//
//adhoc:hotpath
func hopStatsInto(a *Adjacency, seen, frontier, next []sourceSet) HopStats {
	n := a.N
	var hs HopStats
	total := 0
	for base := 0; base < n; base += blockSources {
		clear(seen)
		for s := base; s < min(n, base+blockSources); s++ {
			seen[s][(s-base)/64] |= 1 << ((s - base) % 64)
		}
		copy(frontier, seen)
		for level := 1; ; level++ {
			count := 0
			for v := range n {
				// Unrolled by hand: the compiler keeps eight scalars in
				// registers, where a loop over an array would not.
				var w0, w1, w2, w3, w4, w5, w6, w7 uint64
				for _, u := range a.Neighbors(v) {
					f := &frontier[u]
					w0 |= f[0]
					w1 |= f[1]
					w2 |= f[2]
					w3 |= f[3]
					w4 |= f[4]
					w5 |= f[5]
					w6 |= f[6]
					w7 |= f[7]
				}
				sv := &seen[v]
				nv := sourceSet{w0 &^ sv[0], w1 &^ sv[1], w2 &^ sv[2], w3 &^ sv[3], w4 &^ sv[4], w5 &^ sv[5], w6 &^ sv[6], w7 &^ sv[7]}
				for k := range nv {
					sv[k] |= nv[k]
					count += bits.OnesCount64(nv[k])
				}
				next[v] = nv
			}
			if count == 0 {
				break
			}
			hs.Pairs += count
			total += level * count
			hs.Diameter = max(hs.Diameter, level)
			frontier, next = next, frontier
		}
	}
	if hs.Pairs > 0 {
		hs.MeanHops = float64(total) / float64(hs.Pairs)
	}
	return hs
}

// ArticulationPoints returns the cut vertices of the graph in increasing
// order: nodes whose removal increases the number of connected components.
// They are the single points of failure of the network.
func (a *Adjacency) ArticulationPoints() []int {
	n := a.N
	isCut := make([]bool, n)
	cutVerticesInto(a, make([]int32, n), make([]int32, n), isCut, make([]dfsFrame, n))
	var cuts []int
	for i, c := range isCut {
		if c {
			cuts = append(cuts, i)
		}
	}
	return cuts
}

// dfsFrame is one level of the iterative depth-first search of
// cutVerticesInto: the node, its DFS parent (-1 for a root) and the index of
// the next neighbor to scan.
type dfsFrame struct {
	node, parent, nextIdx int32
}

// cutVerticesInto marks the articulation points of a in isCut and returns
// their number. It is an iterative Tarjan lowlink computation (no recursion,
// so deep paths cannot overflow the stack) over caller-provided scratch:
// disc, low, isCut and stack must each have length a.N.
//
//adhoc:hotpath
func cutVerticesInto(a *Adjacency, disc, low []int32, isCut []bool, stack []dfsFrame) int {
	clear(disc) // discovery times, 0 = unvisited
	clear(isCut)
	timer := int32(0)
	cuts := 0
	for root := range disc {
		if disc[root] != 0 {
			continue
		}
		timer++
		disc[root] = timer
		low[root] = timer
		stack[0] = dfsFrame{node: int32(root), parent: -1}
		top := 1
		rootChildren := 0
		for top > 0 {
			f := &stack[top-1]
			nbrs := a.Neighbors(int(f.node))
			if int(f.nextIdx) < len(nbrs) {
				v := nbrs[f.nextIdx]
				f.nextIdx++
				if disc[v] == 0 {
					if f.parent < 0 {
						rootChildren++
					}
					timer++
					disc[v] = timer
					low[v] = timer
					stack[top] = dfsFrame{node: v, parent: f.node}
					top++
				} else if v != f.parent && disc[v] < low[f.node] {
					low[f.node] = disc[v]
				}
				continue
			}
			// Post-order: propagate lowlink to the parent.
			top--
			u, p := f.node, f.parent
			if p >= 0 {
				low[p] = min(low[p], low[u])
				if int(p) != root && low[u] >= disc[p] && !isCut[p] {
					isCut[p] = true
					cuts++
				}
			}
		}
		if rootChildren >= 2 {
			isCut[root] = true
			cuts++
		}
	}
	return cuts
}

// IsBiconnected reports whether the graph is connected and free of
// articulation points (2-connected for n >= 3): it survives any single node
// failure. Graphs with fewer than 3 nodes follow the usual convention:
// connected graphs of size <= 2 are biconnected.
func (a *Adjacency) IsBiconnected() bool {
	components, _ := labelComponents(a, make([]int32, a.N), make([]int32, a.N))
	return biconnected(components, len(a.ArticulationPoints()))
}

// biconnected is IsBiconnected from a graph's component and cut-vertex
// counts. Graphs on at most two nodes never have a cut vertex, which gives
// the small-graph convention.
func biconnected(components, cuts int) bool {
	return components <= 1 && cuts == 0
}
