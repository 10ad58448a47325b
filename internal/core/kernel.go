package core

import (
	"slices"

	"neisky/internal/paged"
)

// The dominance kernel decides Definition 2 inside an induced subgraph
// G[S] by the refine phase's pivot scan: Definition 2 reads only N(x)
// and N(w), so every dominator of a non-isolated x lies in N[p] for any
// S-neighbor p of x. dynsky's O array (S = V), the layered index's
// levels S_k and subset queries (S = Q) all share its one pivot rule,
// inclusion test and pair test. A vertex isolated in S has no pivot,
// and the scans report it undominated; callers own the isolated-vertex
// policy. The engines keep their Bloom, sketch and hub pre-filters, and
// Dominates and BruteForce stay the oracles the kernel is tested
// against.

// Adj is the adjacency the kernel reads: degrees and neighbor rows
// sorted ascending. *graph.Graph and the maintainers' *dynsky.Rows both
// satisfy it.
type Adj interface {
	Degree(u int32) int
	Neighbors(u int32) []int32
}

// Scope is the vertex set S of G[S]. The zero Scope is the whole
// graph; Level and Subset make the other two. Membership is read from
// plain arrays inline in the kernel's loops, never through a call.
type Scope struct {
	layer []*paged.Page[int32] // Level: w ∈ S iff layer(w) < 0 || layer(w) >= k
	k     int32
	in    []bool // Subset: w ∈ S iff in[w]
}

// Level returns the level S_k of a layered peel: the vertices whose
// layer is at least k or not yet assigned (negative). The layer pages
// are read in place, not copied, so later writes through layer move
// the scope; every page must be allocated (a peel assigns every
// vertex).
func Level(layer *paged.Array[int32], k int32) Scope { return Scope{layer: layer.Pages(), k: k} }

// Subset returns the query scope Q = {w : in[w]}. in is read, not
// copied.
func Subset(in []bool) Scope { return Scope{in: in} }

// Contains reports w ∈ S.
func (s *Scope) Contains(w int32) bool { return member(s.layer, s.k, s.in, w) }

// member is Contains on a Scope's fields. The kernel's loops hold them
// in locals, where they stay in registers; a Scope value is too large
// for that and would be copied to the stack per element.
func member(layer []*paged.Page[int32], k int32, in []bool, w int32) bool {
	switch {
	case in != nil:
		return in[w]
	case layer != nil:
		l := layer[w>>paged.PageBits][w&(paged.PageSize-1)]
		return l < 0 || l >= k
	}
	return true
}

// included reports N_S(a) ⊆ N_S[b] from the rows na = N(a) and
// nb = N(b), searching each S-neighbor of a other than b in the part of
// nb past the previous hit: at most |na|·log|nb| steps. On the whole
// graph |N(a)| ≤ |N(b)| + 1 is necessary and is checked first; inside a
// scope the full rows' lengths bound nothing.
func (s *Scope) included(na, nb []int32, b int32) bool {
	if s.layer == nil && s.in == nil && len(na) > len(nb)+1 {
		return false
	}
	layer, k, in := s.layer, s.k, s.in
	for _, x := range na {
		if x == b || !member(layer, k, in, x) {
			continue
		}
		i, ok := slices.BinarySearch(nb, x)
		if !ok {
			return false
		}
		nb = nb[i+1:]
	}
	return true
}

// Kernel decides Definition 2 dominance in G[S]. The zero S is the
// whole graph. Every method takes vertices of S.
type Kernel struct {
	G Adj
	S Scope
}

// Pivot returns x's S-neighbor of minimum degree, ties to the smaller
// ID, or -1 when x has no neighbor in S. Any S-neighbor is a complete
// pivot; the degree, taken in G rather than G[S], only keeps the scan
// over its row short.
func (kn *Kernel) Pivot(x int32) int32 {
	layer, k, in := kn.S.layer, kn.S.k, kn.S.in
	nx := kn.G.Neighbors(x)
	// The first S-neighbor is found by a loop without calls, which
	// keeps its registers; on the tree carry this ran ~10% faster than
	// one loop that may call Degree at any element.
	i := 0
	for i < len(nx) && !member(layer, k, in, nx[i]) {
		i++
	}
	if i == len(nx) {
		return -1
	}
	// Rows are ascending, so a strict < keeps the smaller ID on ties.
	p, pd := nx[i], kn.G.Degree(nx[i])
	for _, y := range nx[i+1:] {
		if member(layer, k, in, y) {
			if d := kn.G.Degree(y); d < pd {
				p, pd = y, d
			}
		}
	}
	return p
}

// Dominates reports that w dominates x in G[S] (Definition 2: the
// inclusion N_S(x) ⊆ N_S[w] is one-sided, or mutual with w < x).
func (kn *Kernel) Dominates(w, x int32) bool {
	return kn.dominates(w, x, kn.G.Neighbors(x))
}

// dominates is Dominates with x's row nx in hand. When w < x the
// reverse inclusion is not tested: a mutual tie goes to w anyway.
func (kn *Kernel) dominates(w, x int32, nx []int32) bool {
	if w == x {
		return false
	}
	nw := kn.G.Neighbors(w)
	if !kn.S.included(nx, nw, w) {
		return false
	}
	return w < x || !kn.S.included(nw, nx, x)
}

// FirstDominator returns a vertex that dominates x in G[S], the first
// found probing x's pivot p and then N(p) in ascending order, or -1
// when none does or x has no neighbor in S.
func (kn *Kernel) FirstDominator(x int32) int32 {
	p := kn.Pivot(x)
	if p < 0 {
		return -1
	}
	nx := kn.G.Neighbors(x)
	if kn.dominates(p, x, nx) {
		return p
	}
	layer, k, in := kn.S.layer, kn.S.k, kn.S.in
	for _, w := range kn.G.Neighbors(p) {
		if member(layer, k, in, w) && kn.dominates(w, x, nx) {
			return w
		}
	}
	return -1
}

// SmallestDominator returns the smallest-ID vertex that dominates x in
// G[S], or -1 when none does or x has no neighbor in S. In a Level
// scope S_k the candidates are the vertices of layer k itself
// (layer[w] == k): the layered index's parent rule. The scan tries the
// pivot p, then N(p) in ascending order, and stops once the IDs pass
// the best dominator found.
func (kn *Kernel) SmallestDominator(x int32) int32 {
	p := kn.Pivot(x)
	if p < 0 {
		return -1
	}
	nx := kn.G.Neighbors(x)
	best := int32(-1)
	if kn.candidate(p) && kn.dominates(p, x, nx) {
		best = p
	}
	for _, w := range kn.G.Neighbors(p) {
		if best >= 0 && w > best {
			break
		}
		if kn.candidate(w) && kn.dominates(w, x, nx) {
			return w
		}
	}
	return best
}

// candidate reports whether SmallestDominator may return w.
func (kn *Kernel) candidate(w int32) bool {
	if kn.S.layer != nil {
		return kn.S.layer[w>>paged.PageBits][w&(paged.PageSize-1)] == kn.S.k
	}
	return kn.S.Contains(w)
}
