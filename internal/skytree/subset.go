package skytree

import (
	"context"
	"slices"
	"sync"

	"neisky/internal/core"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/runctl"
)

// Subset skyline: the neighborhood skyline of the subgraph induced by
// an arbitrary vertex subset Q, answered directly against the full
// snapshot's CSR — no induced CSR is materialized and no per-query
// index (sketches, hub bitmaps) is built, which is what lets the
// layered index beat a per-query engine recompute (BENCH_6).
//
// Exactness. Dominance inside G[Q] is decided by core's dominance
// kernel scoped to Q (core.Subset): every dominator of q in G[Q] is
// adjacent to all of q's Q-neighbors, so scanning the closed
// neighborhood of one Q-neighbor (the kernel's minimum-degree pivot) is
// complete. A vertex with no neighbor in Q is maximal (the same
// KeepIsolated convention the tree uses at every level).
//
// Index assist. The tree contributes the probe order, not the answer:
// q's parent witness — its canonical dominator from the layered peel —
// is tested first (dominators in G frequently remain dominators in the
// induced subgraph), and pivot-range candidates are probed
// shallow-layer-first, since shallow vertices dominate more. Every
// probe is verified exactly, so the result is identical with t == nil;
// the assist only moves the early exit forward.

// inQPool recycles the queries' membership arrays (*[]bool). Every
// array in it is all false: a query sets Q's entries and clears exactly
// those before putting it back, so a query costs its Q, not n.
var inQPool sync.Pool

// SubsetResult is the output of a subset-skyline query.
type SubsetResult struct {
	// Skyline lists the skyline of G[Q] in ascending ID order. When
	// Truncated is set it is a sound superset: vertices not yet proven
	// dominated remain listed.
	Skyline []int32
	// PairsExamined counts exact dominance scans; WitnessHits counts
	// queries settled by the parent-witness probe alone.
	PairsExamined int
	WitnessHits   int
	Truncated     bool
	Err           error
}

// SubsetSkyline computes the neighborhood skyline of the subgraph of g
// induced by sub (vertex IDs of g, any order, duplicates ignored).
// t may be nil: the index only accelerates the scan.
func SubsetSkyline(g *graph.Graph, t *Tree, sub []int32) *SubsetResult {
	return SubsetSkylineCtx(context.Background(), g, t, sub)
}

// SubsetSkylineCtx is SubsetSkyline under a context, with the anytime
// truncated-superset contract on cancellation.
func SubsetSkylineCtx(ctx context.Context, g *graph.Graph, t *Tree, sub []int32) *SubsetResult {
	run := runctl.FromContext(ctx)
	defer run.Release()
	r := obs.Get()
	defer r.Start("skytree.subset").End()

	n := int32(g.N())
	buf, _ := inQPool.Get().(*[]bool)
	if buf == nil || len(*buf) < int(n) {
		b := make([]bool, n)
		buf = &b
	}
	inQ := (*buf)[:n]
	q := make([]int32, 0, len(sub))
	for _, v := range sub {
		if v >= 0 && v < n && !inQ[v] {
			inQ[v] = true
			q = append(q, v)
		}
	}
	// Ascending processing keeps the output sorted without a final
	// sort, whatever order the caller posted.
	slices.Sort(q)

	res := &SubsetResult{}
	kn := core.Kernel{G: g, S: core.Subset(inQ)}
	out := make([]int32, 0, len(q))
	cp := run.Checkpoint(checkEvery)
	for i, v := range q {
		if cp.Tick() {
			res.Truncated = true
			res.Err = run.Err()
			// Superset contract: everything not yet scanned stays in.
			out = append(out, q[i:]...)
			break
		}
		// KeepIsolated: a vertex with no neighbor in Q is maximal. Most
		// of a small Q is, so this runs inline, before any kernel call.
		if !slices.ContainsFunc(g.Neighbors(v), func(x int32) bool { return inQ[x] }) ||
			!subsetDominated(&kn, t, v, res) {
			out = append(out, v)
		}
	}
	res.Skyline = out
	for _, v := range q {
		inQ[v] = false
	}
	inQPool.Put(buf)
	r.Add("skytree.subset.queries", 1)
	return res
}

// subsetDominated reports whether v, which has a neighbor in Q, is
// dominated inside G[Q], where kn is the dominance kernel scoped to Q.
// The caller must rule out an isolated v first: the pair test alone
// would let anyone dominate it.
func subsetDominated(kn *core.Kernel, t *Tree, v int32, res *SubsetResult) bool {
	pivot := kn.Pivot(v)
	probe := func(w int32) bool {
		res.PairsExamined++
		return kn.Dominates(w, v)
	}
	// Witness-first probe: the layered peel already certified
	// parent(v) as a dominator of v in one induced remainder; inside
	// Q it is the best single guess.
	if t != nil {
		if p := t.Parent(v); p >= 0 && p != pivot && kn.S.Contains(p) && probe(p) {
			res.WitnessHits++
			return true
		}
	}
	if probe(pivot) {
		return true
	}
	nbrs := kn.G.Neighbors(pivot)
	if t != nil {
		// Shallow-layer-first: probe candidates at layers ≤ layer(v)
		// before the rest — dominance flows from shallow to deep far
		// more often than the reverse, so the early exit usually lands
		// in the first pass.
		lv := t.Layer(v)
		for _, w := range nbrs {
			if w != v && kn.S.Contains(w) && t.Layer(w) <= lv && probe(w) {
				return true
			}
		}
		for _, w := range nbrs {
			if w != v && kn.S.Contains(w) && t.Layer(w) > lv && probe(w) {
				return true
			}
		}
		return false
	}
	for _, w := range nbrs {
		if w != v && kn.S.Contains(w) && probe(w) {
			return true
		}
	}
	return false
}
