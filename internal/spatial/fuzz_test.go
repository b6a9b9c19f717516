package spatial

import (
	"slices"
	"testing"

	"adhocnet/internal/geomtest"
)

// pairRec is one visited pair for set comparison.
type pairRec struct {
	i, j int
	d2   float64
}

func cmpPairRec(a, b pairRec) int {
	switch {
	case a.i != b.i:
		return a.i - b.i
	case a.j != b.j:
		return a.j - b.j
	case a.d2 < b.d2:
		return -1
	case a.d2 > b.d2:
		return 1
	}
	return 0
}

// FuzzSpatialIndexNeighbors checks the CSR cell grid against the brute-force
// reference: for an arbitrary point set and query radius, ForEachPairWithin
// must visit exactly the pairs at distance <= r, with identical squared
// distances. The decoder reuses the quantized-coordinate scheme of the graph
// fuzzers, so coincident points, single-cell grids and boundary-cell clamps
// all come up.
func FuzzSpatialIndexNeighbors(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 16, 0, 16, 0}) // zero radius, coincident points
	seed := []byte{64, 1, 2}                   // r = 356/16, dim 3
	for i := 0; i < 60; i++ {
		x := uint16(i * 40503)
		seed = append(seed, byte(x), byte(x>>8), byte(x>>7), byte(x>>2), byte(x>>11), byte(x>>4))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := float64(uint16(data[0])|uint16(data[1])<<8) / 16
		pts, dim := geomtest.DecodeFuzzPoints(data[2:], 120)
		var got, want []pairRec
		ix := NewIndex(pts, dim, r)
		ix.ForEachPairWithin(r, func(i, j int, d2 float64) {
			got = append(got, pairRec{i, j, d2})
		})
		BruteForcePairsWithin(pts, r, func(i, j int, d2 float64) {
			want = append(want, pairRec{i, j, d2})
		})
		slices.SortFunc(got, cmpPairRec)
		slices.SortFunc(want, cmpPairRec)
		if len(got) != len(want) {
			t.Fatalf("pair counts differ: grid %d, brute force %d (n=%d, r=%v, side=%v)",
				len(got), len(want), len(pts), r, ix.side)
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("pair %d differs: grid %+v, brute force %+v (n=%d, r=%v)",
					k, got[k], want[k], len(pts), r)
			}
		}
	})
}

// FuzzKDTreeMatchesGrid checks the k-d tree against both the grid and the
// brute-force reference on the full backend surface: pairs-within, the
// annulus query (floor derived from the radius so coincident-distance edge
// cases land exactly on the boundary) and the minimum-pair query in both of
// its forms. The shared decoder produces 1D/2D/3D, coincident and
// tie-heavy point sets.
func FuzzKDTreeMatchesGrid(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 16, 0, 16, 0})            // zero radius, coincident points
	f.Add([]byte{16, 0, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0}) // 1D line
	seed := []byte{64, 1, 1}                              // r = 356/16, dim 2: clustered-ish quantized cloud
	for i := 0; i < 80; i++ {
		x := uint16(i * 40503)
		seed = append(seed, byte(x), byte(x>>8), byte(x>>7), byte(x>>2))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		r := float64(uint16(data[0])|uint16(data[1])<<8) / 16
		pts, dim := geomtest.DecodeFuzzPoints(data[2:], 120)
		tree := newKDTree(pts, dim)
		var fromTree, fromGrid, fromBrute []pairRec
		tree.ForEachPairWithin(r, func(i, j int, d2 float64) {
			fromTree = append(fromTree, pairRec{i, j, d2})
		})
		PairsWithin(pts, dim, r, func(i, j int, d2 float64) {
			fromGrid = append(fromGrid, pairRec{i, j, d2})
		})
		BruteForcePairsWithin(pts, r, func(i, j int, d2 float64) {
			fromBrute = append(fromBrute, pairRec{i, j, d2})
		})
		slices.SortFunc(fromTree, cmpPairRec)
		slices.SortFunc(fromGrid, cmpPairRec)
		slices.SortFunc(fromBrute, cmpPairRec)
		if !slices.Equal(fromTree, fromGrid) || !slices.Equal(fromTree, fromBrute) {
			t.Fatalf("pair sets differ: tree %d, grid %d, brute %d (n=%d, dim=%d, r=%v)",
				len(fromTree), len(fromGrid), len(fromBrute), len(pts), dim, r)
		}
		// The radius-free tree answers a second radius without a rebuild:
		// at r/2 it must visit exactly the brute-force pairs within r/2.
		half := r / 2
		lo2 := half * half // also the MinPairsByLabel annulus floor below
		var within []pairRec
		tree.ForEachPairWithin(half, func(i, j int, d2 float64) {
			within = append(within, pairRec{i, j, d2})
		})
		slices.SortFunc(within, cmpPairRec)
		var wantWithin []pairRec
		for _, p := range fromBrute {
			if p.d2 <= lo2 {
				wantWithin = append(wantWithin, p)
			}
		}
		if !slices.Equal(within, wantWithin) {
			t.Fatalf("pairs within %v differ: tree %d, brute %d (n=%d)",
				half, len(within), len(wantWithin), len(pts))
		}
		// MinPairsByLabel against its brute reference, twice on one tree:
		// unrestricted (frag = labels, GeoMST's rounds), then restricted to
		// a frag partition of blocks plus singleton "movers" (the kinetic
		// repair's rounds). Labels are runs of blk points modulo k, both
		// from the low radius byte, so the fuzzer explores singleton through
		// all-same labels and spatially coherent label blocks; the frag
		// block size fb comes from the high radius byte.
		if len(pts) > 0 {
			k := 1 + int(data[0])%5
			blk := 1 + int(data[0]/5)%8
			fb := 1 + int(data[1])%16
			labels := make([]int32, len(pts))
			frag := make([]int32, len(pts))
			for i := range labels {
				labels[i] = int32(i / blk % k)
				frag[i] = int32(i / fb)
				if (i+int(data[1]))%23 == 0 {
					frag[i] = int32(len(pts) + i)
				}
			}
			checkMinPairs(t, "frag=labels", tree, pts, labels, labels, lo2, r)
			checkMinPairs(t, "frag", tree, pts, labels, frag, lo2, r)
		}
	})
}
