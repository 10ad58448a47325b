package skytree

// graphAdj is the adjacency the level-filtered dominance predicates
// read. Both the immutable CSR (*graph.Graph: construction, subset
// queries) and the incremental maintainer's patched CSR
// (*dynsky.Rows) satisfy it, so one set of predicates serves the
// build and the maintenance path. Rows are sorted ascending.
type graphAdj interface {
	Degree(u int32) int
	Neighbors(u int32) []int32
	Has(u, v int32) bool
}

// levelView pairs an adjacency with a layer assignment and evaluates
// the dominance predicates of the peel at a given level k, where the
// remaining set is S_k = {w : layer[w] ≥ k or layer[w] == unassigned}.
//
// The convention at every level is the paper's ALGORITHMIC treatment of
// isolated vertices (core.Options.KeepIsolated): a vertex with no
// remaining neighbor is maximal in its level and never dominates
// anyone. This is what makes the peel local — the definitional
// treatment ("an isolated vertex is dominated by any non-isolated
// one") is a global property that would couple every level to the
// whole remaining vertex set, and it degenerates the layering (a star
// graph would peel one isolated leaf per level for n levels instead of
// finishing in two).
type levelView struct {
	g     graphAdj
	layer []int32 // unassigned (< 0) counts as "still in every S_k"
}

// inS reports w ∈ S_k.
func (lv levelView) inS(w, k int32) bool {
	return lv.layer[w] < 0 || lv.layer[w] >= k
}

// includedAt reports N_{S_k}(a) ⊆ N_{S_k}[b] on the level-k induced
// subgraph.
func (lv levelView) includedAt(a, b, k int32) bool {
	for _, x := range lv.g.Neighbors(a) {
		if x != b && lv.inS(x, k) && !lv.g.Has(b, x) {
			return false
		}
	}
	return true
}

// dominatesAt reports w ≤-dominates v in the level-k induced subgraph
// (Definition 2 with the ID tie-break on mutual inclusion).
func (lv levelView) dominatesAt(w, v, k int32) bool {
	if w == v || !lv.includedAt(v, w, k) {
		return false
	}
	if !lv.includedAt(w, v, k) {
		return true
	}
	return w < v
}

// pivotAt returns a neighbor of v inside S_k with minimum (full-graph)
// degree, or -1 when v is isolated in S_k. Any S_k-neighbor is a sound
// pivot — every dominator of v at level k is adjacent to all of v's
// S_k-neighbors, hence lies in N_{S_k}[pivot] — so the raw degree is
// only a heuristic to keep the scan range small.
func (lv levelView) pivotAt(v, k int32) int32 {
	pivot, pd := int32(-1), 0
	for _, x := range lv.g.Neighbors(v) {
		if !lv.inS(x, k) {
			continue
		}
		if d := lv.g.Degree(x); pivot < 0 || d < pd || (d == pd && x < pivot) {
			pivot, pd = x, d
		}
	}
	return pivot
}

// dominatedAt reports whether v is dominated by any vertex of S_k in
// the level-k induced subgraph. A vertex isolated at level k is maximal
// (KeepIsolated semantics).
func (lv levelView) dominatedAt(v, k int32) bool {
	pivot := lv.pivotAt(v, k)
	if pivot < 0 {
		return false
	}
	if lv.inS(pivot, k) && lv.dominatesAt(pivot, v, k) {
		return true
	}
	for _, w := range lv.g.Neighbors(pivot) {
		if w != v && lv.inS(w, k) && lv.dominatesAt(w, v, k) {
			return true
		}
	}
	return false
}

// parentAt returns the canonical parent witness of a vertex v at layer
// k ≥ 1: the minimum-ID vertex w with layer[w] == k-1 that dominates v
// in the level-(k-1) induced subgraph. Such a witness always exists —
// dominance at a fixed level is a finite strict partial order, so above
// any dominated vertex sits a maximal element of that level, and the
// maximal elements of level k-1 are exactly layer k-1. Restricting the
// witness to the PREVIOUS layer (rather than any dominator, whose own
// layer the induced peel does not order) is what makes parent chains
// ascend exactly one layer per hop and terminate at layer 0.
func (lv levelView) parentAt(v, k int32) int32 {
	prev := k - 1
	pivot := lv.pivotAt(v, prev)
	if pivot < 0 {
		return -1
	}
	best := int32(-1)
	consider := func(w int32) {
		if w == v || (best >= 0 && w >= best) {
			return
		}
		if lv.layer[w] == prev && lv.dominatesAt(w, v, prev) {
			best = w
		}
	}
	consider(pivot)
	for _, w := range lv.g.Neighbors(pivot) {
		consider(w)
	}
	return best
}
