package clique

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"neisky/internal/core"
	"neisky/internal/graph"
	"neisky/internal/runctl"
)

// cliqueKey canonicalizes a clique (already sorted ascending) for
// duplicate detection.
func cliqueKey(c []int32) string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(v)))
	}
	return b.String()
}

// TopKResult reports a k-maximum-cliques computation.
type TopKResult struct {
	Cliques [][]int32 // distinct cliques, sizes non-increasing
	MCCalls int       // MaxContaining invocations (the paper's cost driver)
	Rounds  int       // selection rounds (NeiSkyTopkMCC)
	// Truncated marks a best-effort partial result: the run was
	// cancelled mid-enumeration. Every listed clique is genuine, but
	// the list may be missing larger cliques not yet discovered. Err
	// carries the cause.
	Truncated bool
	Err       error
}

// BaseTopkMCC is the straightforward k-maximum-cliques method (§IV-C.3):
// compute MC(u), a maximum clique containing u, for every vertex; return
// the k largest distinct cliques.
func BaseTopkMCC(g *graph.Graph, k int) *TopKResult {
	return baseTopkRun(nil, g, k)
}

// BaseTopkMCCCtx is BaseTopkMCC under a context; see
// TopKResult.Truncated for the anytime contract.
func BaseTopkMCCCtx(ctx context.Context, g *graph.Graph, k int) *TopKResult {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return baseTopkRun(run, g, k)
}

func baseTopkRun(run *runctl.Run, g *graph.Graph, k int) *TopKResult {
	res := &TopKResult{}
	if k == 1 {
		// Degenerates to plain maximum clique computation (paper §V,
		// Exp-6: "in the case of k = 1, BaseTopkMCC ... degenerates to
		// MC-BRB").
		mcc := baseMCCRun(run, g)
		if len(mcc.Clique) > 0 {
			res.Cliques = [][]int32{mcc.Clique}
		}
		res.Truncated, res.Err = mcc.Truncated, mcc.Err
		return res
	}
	n := int32(g.N())
	all := make([][]int32, 0, n)
	for u := int32(0); u < n; u++ {
		res.MCCalls++
		c, trunc := maxContainingRun(run, g, u)
		all = append(all, c)
		if trunc {
			res.Truncated = true
			res.Err = run.Err()
			break
		}
	}
	res.Cliques = selectTopKDistinct(all, k)
	return res
}

// selectTopKDistinct orders cliques by (size desc, lexicographic key asc)
// and keeps the first k distinct ones.
func selectTopKDistinct(all [][]int32, k int) [][]int32 {
	sort.Slice(all, func(i, j int) bool {
		if len(all[i]) != len(all[j]) {
			return len(all[i]) > len(all[j])
		}
		return cliqueKey(all[i]) < cliqueKey(all[j])
	})
	seen := make(map[string]bool)
	var out [][]int32
	for _, c := range all {
		key := cliqueKey(c)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, c)
		if len(out) == k {
			break
		}
	}
	return out
}

// NeiSkyTopkMCC computes the k largest distinct maximum cliques using the
// neighborhood-skyline pruning of Lemma 6 (|MC(v)| ≤ |MC(u)| whenever
// v ≤ u):
//
//   - The candidate pool starts as the skyline R; every non-candidate
//     vertex records one dominator (the O array), so each unconsumed
//     vertex always has a candidate at the top of its domination chain.
//   - Each round evaluates MC(u) only for candidates (memoized), emits
//     the largest, consumes its seed, and releases the vertices whose
//     recorded dominator was the seed back into the pool — exactly the
//     "update the neighborhood skyline" step the paper describes.
func NeiSkyTopkMCC(g *graph.Graph, k int) *TopKResult {
	sky := core.FilterRefineSky(g, core.Options{})
	return NeiSkyTopkMCCWithSkyline(g, k, sky)
}

// NeiSkyTopkMCCCtx is NeiSkyTopkMCC under a context. As with
// NeiSkyMCCtx, a skyline truncated by cancellation is a sound superset
// (the candidate pool just starts larger), so the selection still runs
// on it; the result carries Truncated/Err either way.
func NeiSkyTopkMCCCtx(ctx context.Context, g *graph.Graph, k int) *TopKResult {
	run := runctl.FromContext(ctx)
	defer run.Release()
	sky := core.FilterRefineSkyCtx(ctx, g, core.Options{})
	res := neiSkyTopkRun(run, g, k, sky)
	if sky.Truncated && !res.Truncated {
		res.Truncated = true
		res.Err = sky.Err
	}
	return res
}

// NeiSkyTopkMCCWithSkyline is NeiSkyTopkMCC with a precomputed skyline
// result (which must carry the Dominator array).
func NeiSkyTopkMCCWithSkyline(g *graph.Graph, k int, sky *core.Result) *TopKResult {
	return neiSkyTopkRun(nil, g, k, sky)
}

// NeiSkyTopkMCCWithSkylineCtx is NeiSkyTopkMCCWithSkyline under a
// context, with NeiSkyTopkMCCCtx's anytime contract.
func NeiSkyTopkMCCWithSkylineCtx(ctx context.Context, g *graph.Graph, k int, sky *core.Result) *TopKResult {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return neiSkyTopkRun(run, g, k, sky)
}

func neiSkyTopkRun(run *runctl.Run, g *graph.Graph, k int, sky *core.Result) *TopKResult {
	res := &TopKResult{}
	if k == 1 {
		// Degenerates to NeiSkyMC (paper §V, Exp-6).
		mcc := neiSkyMCRun(run, g, sky.Skyline)
		if len(mcc.Clique) > 0 {
			res.Cliques = [][]int32{mcc.Clique}
		}
		res.Truncated, res.Err = mcc.Truncated, mcc.Err
		return res
	}
	children := core.DominatedBy(sky.Dominator)
	cores := CoreNumbers(g)

	memo := make(map[int32][]int32)
	mc := func(u int32) []int32 {
		if c, ok := memo[u]; ok {
			return c
		}
		res.MCCalls++
		c, trunc := maxContainingRun(run, g, u)
		if trunc {
			// Don't memoize a possibly-submaximal incumbent; the
			// selection loop stops at the next round boundary.
			res.Truncated = true
			res.Err = run.Err()
			return c
		}
		memo[u] = c
		return c
	}

	// The pool holds candidates with an upper bound on |MC(u)|. The
	// initial skyline pool is evaluated eagerly (the r-vs-n cost model
	// of the paper); vertices released on consumption carry the lazy
	// bound min(|MC(dominator)|, core+1) — Lemma 6 plus the core bound
	// — and are only evaluated when that bound could win a round.
	type entry struct {
		evaluated bool
		bound     int
	}
	pool := make(map[int32]*entry, len(sky.Skyline))
	for _, u := range sky.Skyline {
		pool[u] = &entry{evaluated: true, bound: len(mc(u))}
	}

	seenCliques := make(map[string]bool)
	for len(res.Cliques) < k && len(pool) > 0 && !res.Truncated {
		res.Rounds++
		// Raise lazy bounds until the best evaluated candidate provably
		// beats every unevaluated bound.
		var best int32 = -1
		for {
			best = -1
			var pending int32 = -1
			bestSize, pendingBound := -1, -1
			for u, e := range pool {
				if e.evaluated {
					if e.bound > bestSize || (e.bound == bestSize && (best == -1 || u < best)) {
						bestSize, best = e.bound, u
					}
				} else if e.bound > pendingBound || (e.bound == pendingBound && (pending == -1 || u < pending)) {
					pendingBound, pending = e.bound, u
				}
			}
			if pending == -1 || pendingBound <= bestSize {
				break
			}
			e := pool[pending]
			e.evaluated = true
			e.bound = len(mc(pending))
		}
		if best == -1 || res.Truncated {
			break
		}
		c := mc(best)
		key := cliqueKey(c)
		if !seenCliques[key] {
			seenCliques[key] = true
			res.Cliques = append(res.Cliques, c)
		}
		// Consume, in one batch, every evaluated candidate whose
		// memoized MC is this same clique: mc(u) is a property of the
		// graph, so each of them could only re-emit the duplicate.
		// Release their recorded dominees with lazy bounds.
		var batch []int32
		for u, e := range pool {
			if e.evaluated && cliqueKey(mc(u)) == key {
				batch = append(batch, u)
			}
		}
		for _, u := range batch {
			bound := len(mc(u))
			delete(pool, u)
			for _, v := range children[u] {
				if _, ok := pool[v]; ok {
					continue
				}
				b := bound
				if cb := int(cores[v]) + 1; cb < b {
					b = cb
				}
				pool[v] = &entry{bound: b}
			}
		}
	}
	return res
}

// Sizes extracts the size sequence of a clique list.
func Sizes(cliques [][]int32) []int {
	out := make([]int, len(cliques))
	for i, c := range cliques {
		out[i] = len(c)
	}
	return out
}
