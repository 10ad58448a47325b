package graph

import (
	"fmt"

	"neisky/internal/bitset"
)

// HubIndex is a word-packed adjacency summary for the graph's
// high-degree vertices ("hubs"): every vertex with degree ≥ Theta gets a
// dense n-bit bitmap of its open neighborhood. The skyline containment
// kernel N(u) ⊆ N[w] — the hot primitive of every algorithm in this
// repository — then runs against a hub w as one O(1) bitmap probe per
// element of N(u) (or, hub-versus-hub, as a straight word loop), instead
// of a merge or per-element binary search over w's huge adjacency list.
// Power-law graphs put hubs on the dominating side of almost every
// surviving pair, which is exactly the worst case of the merge path.
//
// Theta is auto-tuned from the build-time degree histogram so the total
// bitmap storage stays within O(m) words: the budget is hubBudgetWords(m)
// 64-bit words, i.e. comparable to the CSR arrays themselves. The
// threshold is degree-monotone — every vertex at least as high-degree as
// a hub is itself a hub — which the skyline kernels exploit (a viable
// dominator w of a hub u has deg(w) ≥ deg(u), hence is also a hub).
//
// The index is immutable after construction and safe for concurrent use.
type HubIndex struct {
	g     *Graph
	theta int          // minimum hub degree (MaxInt-like sentinel when no hubs)
	bits  []bitset.Set // per-vertex open-neighborhood bitmap, nil for non-hubs
	hubs  int          // number of indexed vertices
	arena *bitset.Arena
}

// minHubDegree is the smallest degree worth indexing: below the linear-
// scan cutoff the merge path is already a handful of comparisons.
const minHubDegree = linearScanMax + 1

// hubBudgetWords returns the bitmap storage budget in 64-bit words for a
// graph with m edges: 2m words ≈ 2× the CSR adjacency array's footprint.
func hubBudgetWords(m int) int { return 2 * m }

// Hub returns the graph's hub-bitmap index, building it on first use.
// The index is cached on the graph; concurrent callers share one build.
func (g *Graph) Hub() *HubIndex {
	if h := g.hub.Load(); h != nil {
		return h
	}
	g.hubOnce.Do(func() { g.hub.Store(buildHubIndex(g)) })
	return g.hub.Load()
}

// buildHubIndex materializes bitmaps for every vertex whose degree
// reaches the auto-tuned threshold.
func buildHubIndex(g *Graph) *HubIndex {
	n := g.N()
	h := &HubIndex{g: g, theta: 1 << 30}
	if n == 0 || g.M() == 0 {
		return h
	}
	wordsPer := bitset.WordsFor(n)
	maxHubs := hubBudgetWords(g.M()) / wordsPer
	if maxHubs == 0 {
		return h
	}
	// Smallest theta ≥ minHubDegree whose suffix count fits the budget.
	hist := g.DegreeHist()
	theta, suffix := len(hist), 0
	for d := len(hist) - 1; d >= minHubDegree; d-- {
		if suffix+hist[d] > maxHubs {
			break
		}
		suffix += hist[d]
		theta = d
	}
	if suffix == 0 {
		return h
	}
	h.theta = theta
	h.hubs = suffix
	h.bits = make([]bitset.Set, n)
	h.arena = bitset.NewArena(suffix, n)
	slot := 0
	for u := int32(0); u < int32(n); u++ {
		if g.Degree(u) < theta {
			continue
		}
		b := h.arena.At(slot)
		slot++
		for _, v := range g.Neighbors(u) {
			b.Set(v)
		}
		h.bits[u] = b
	}
	return h
}

// Theta returns the hub degree threshold (a large sentinel when the
// graph has no hubs).
func (h *HubIndex) Theta() int { return h.theta }

// Hubs returns the number of indexed vertices.
func (h *HubIndex) Hubs() int { return h.hubs }

// Bytes reports the index's bitmap storage footprint.
func (h *HubIndex) Bytes() int {
	if h.arena == nil {
		return 0
	}
	return h.arena.Bytes() + 24*len(h.bits)
}

// IsHub reports whether u has a bitmap.
func (h *HubIndex) IsHub(u int32) bool { return h.bits != nil && h.bits[u] != nil }

// Bits returns u's open-neighborhood bitmap, or nil when u is not a hub.
func (h *HubIndex) Bits(u int32) bitset.Set {
	if h.bits == nil {
		return nil
	}
	return h.bits[u]
}

// Has reports whether the edge (u, v) exists, in O(1) when u is a hub.
func (h *HubIndex) Has(u, v int32) bool {
	if b := h.Bits(u); b != nil {
		return b.Test(v)
	}
	return h.g.Has(u, v)
}

// SubsetOpenInClosed reports N(u) ⊆ N[v] (paper Definition 1) through
// the fastest applicable kernel:
//
//   - hub v, hub u: word-parallel AndNot loop over the two bitmaps,
//     tolerating the one element v ∈ N(u) that N(v)'s bitmap cannot hold;
//   - hub v only: one bitmap probe per element of N(u) — O(deg u)
//     regardless of deg(v);
//   - otherwise: the adaptive merge/gallop fallback.
func (h *HubIndex) SubsetOpenInClosed(u, v int32) bool {
	if bv := h.Bits(v); bv != nil {
		nu := h.g.Neighbors(u)
		if bu := h.Bits(u); bu != nil && 2*len(nu) >= bv.Words() {
			return bu.SubsetOfExcept(bv, v)
		}
		for _, x := range nu {
			if x != v && !bv.Test(x) {
				return false
			}
		}
		return true
	}
	return rowsOpenInClosed(h.g.Neighbors(u), h.g.Neighbors(v), v)
}

// rowsOpenInClosed reports N(u) ⊆ N[v] on explicit sorted rows
// nu = N(u), nv = N(v) — the non-hub containment kernel: the legacy
// merge when the two lists are comparable, per-element galloping probes
// into N(v) when deg(v) dwarfs deg(u) (cost deg(u)·log deg(v) instead
// of deg(u)+deg(v)).
func rowsOpenInClosed(nu, nv []int32, v int32) bool {
	if len(nv) > 4*len(nu)+16 {
		for _, x := range nu {
			if x != v && !searchSorted(nv, x) {
				return false
			}
		}
		return true
	}
	return mergeOpenInClosed(nu, nv, v)
}

func (h *HubIndex) String() string {
	return fmt.Sprintf("hubindex{theta=%d hubs=%d bytes=%d}", h.theta, h.hubs, h.Bytes())
}
