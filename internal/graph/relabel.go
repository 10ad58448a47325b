package graph

import (
	"fmt"
	"sort"
)

// Degree-descending vertex relabeling. The skyline kernels' cache
// behaviour is dominated by the high-degree side of every probe: hub
// bitmaps are dense n-bit rows, MS-BFS packs 64 sources per word, and
// the refine phase hammers the adjacency windows of a graph's hubs.
// Assigning ids in degree-descending order concentrates all of that
// traffic at the low end of the id space — hub bitmap words for the
// vertices that matter sit in the same cache lines, hub adjacency
// windows cluster at the front of the adjacency array, and the filter
// scan touches hot vertices first. Real edge-list datasets arrive with
// arbitrary ids, so the streaming converter applies this permutation at
// conversion time (ConvertOptions.Relabel); the in-memory form below is
// the oracle the tests compare against.

// DegreeDescendingPerm returns the degree-descending relabeling of g as
// a pair of inverse maps: oldToNew[u] is u's new id, newToOld[x] the
// original id of new vertex x. Ties break by ascending old id, so the
// permutation is deterministic.
func (g *Graph) DegreeDescendingPerm() (oldToNew, newToOld []int32) {
	n := g.N()
	newToOld = make([]int32, n)
	for i := range newToOld {
		newToOld[i] = int32(i)
	}
	sort.SliceStable(newToOld, func(i, j int) bool {
		return g.Degree(newToOld[i]) > g.Degree(newToOld[j])
	})
	oldToNew = make([]int32, n)
	for x, old := range newToOld {
		oldToNew[old] = int32(x)
	}
	return oldToNew, newToOld
}

// Relabel returns a copy of g with vertex u renamed oldToNew[u], which
// must be a permutation of 0..n-1 (checked; a bad map panics — callers
// construct the permutation, so this is a programmer error, not input).
// The CSR is built directly — degrees are permutation-invariant — so
// the cost is O(n + m·log dmax) for the per-window re-sort.
func (g *Graph) Relabel(oldToNew []int32) *Graph {
	n := g.N()
	if len(oldToNew) != n {
		panic(fmt.Sprintf("graph: Relabel: perm has %d entries for %d vertices", len(oldToNew), n))
	}
	offsets := make([]int32, n+1)
	seen := make([]bool, n)
	for old := int32(0); old < int32(n); old++ {
		x := oldToNew[old]
		if x < 0 || x >= int32(n) {
			panic("graph: Relabel: perm value out of range")
		}
		if seen[x] {
			panic("graph: Relabel: perm is not a bijection")
		}
		seen[x] = true
		offsets[x+1] = int32(g.Degree(old))
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	adj := make([]int32, offsets[n])
	for old := int32(0); old < int32(n); old++ {
		x := oldToNew[old]
		w := adj[offsets[x]:offsets[x+1]]
		for i, v := range g.Neighbors(old) {
			w[i] = oldToNew[v]
		}
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	}
	return fromCSR(offsets, adj, g.m)
}

// RelabelByDegree applies the degree-descending permutation and returns
// the relabeled graph together with both id maps. Results computed on
// the relabeled graph map back to original ids via newToOld.
func (g *Graph) RelabelByDegree() (relabeled *Graph, oldToNew, newToOld []int32) {
	oldToNew, newToOld = g.DegreeDescendingPerm()
	return g.Relabel(oldToNew), oldToNew, newToOld
}

// MapVertices translates a vertex list through an id map (for example
// newToOld from RelabelByDegree), returning a fresh slice.
func MapVertices(vs []int32, idMap []int32) []int32 {
	out := make([]int32, len(vs))
	for i, v := range vs {
		out[i] = idMap[v]
	}
	return out
}
