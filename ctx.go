package neisky

import (
	"context"

	"neisky/internal/betweenness"
	"neisky/internal/centrality"
	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/mis"
	"neisky/internal/runctl"
	"neisky/internal/skytree"
)

// This file is the context-aware surface of the package. Every *Ctx
// function honors cancellation (deadline, explicit cancel, or a work
// budget installed with WithComputeBudget) and returns a best-effort
// partial result instead of discarding work: the result carries
// Truncated = true and an Err recording the cause. See each engine's
// Result docs for the exact anytime contract (skylines degrade to
// not-yet-dominated supersets, branch-and-bound returns its incumbent,
// greedy selections return the committed prefix).
//
// Cancellation is polled at checkpoints in the hot loops — one atomic
// load every few dozen to few thousand iterations — so a context that
// can never fire costs nothing: the engines skip polling entirely when
// the context has no deadline, cancel, or budget attached.

// ErrBudgetExhausted is the cancellation cause when a compute budget
// installed with WithComputeBudget runs out.
var ErrBudgetExhausted = runctl.ErrBudget

// TruncationCause maps a Result's Err to the stable cause strings used
// across the CLIs and the nsserve API: "timeout", "canceled", "budget",
// "panic", the error text otherwise, or "" for nil (a complete run).
func TruncationCause(err error) string { return runctl.CauseString(err) }

// WithComputeBudget returns a context that cancels itself (with cause
// ErrBudgetExhausted) after the wrapped computation has charged
// roughly units checkpoint units of work. Units are engine-specific
// (vertices filtered, BFS nodes dequeued, search-tree nodes expanded)
// but monotone in actual work, so a budget bounds runtime on any input.
func WithComputeBudget(ctx context.Context, units int64) context.Context {
	return runctl.WithBudget(ctx, units)
}

// SkylineCtx is Skyline under a context: FilterRefineSky with default
// options, returning the full Result so callers can observe Truncated.
func SkylineCtx(ctx context.Context, g *Graph) *Result {
	return core.FilterRefineSkyCtx(ctx, g, core.Options{})
}

// SkylineResultCtx is SkylineResult under a context.
func SkylineResultCtx(ctx context.Context, g *Graph, opts Options) *Result {
	return core.FilterRefineSkyCtx(ctx, g, opts)
}

// ComputeSkylineCtx is ComputeSkyline under a context. The Oracle
// algorithm is a correctness reference without cancellation support and
// runs to completion regardless of ctx.
func ComputeSkylineCtx(ctx context.Context, g *Graph, algo Algorithm, opts Options) *Result {
	switch algo {
	case Base:
		return core.BaseSkyCtx(ctx, g, opts)
	case TwoHop:
		return core.Base2HopCtx(ctx, g, opts)
	case CandidateSet:
		return core.BaseCSetCtx(ctx, g, opts)
	case Oracle:
		return core.BruteForce(g)
	default:
		return core.FilterRefineSkyCtx(ctx, g, opts)
	}
}

// SkylineShardedCtx is SkylineSharded under a context, with the same
// anytime superset contract on cancellation as SkylineCtx.
func SkylineShardedCtx(ctx context.Context, g *Graph, opts Options, so ShardOptions) *Result {
	return core.ShardedFilterRefineSkyCtx(ctx, g, opts, so)
}

// BuildSkylineTreeCtx is BuildSkylineTree under a context: a cancelled
// build returns a truncated tree whose assigned layers are final.
func BuildSkylineTreeCtx(ctx context.Context, g *Graph, opts SkylineTreeOptions) *SkylineTree {
	return skytree.BuildCtx(ctx, g, opts)
}

// SubsetSkylineCtx is SubsetSkyline under a context, returning the full
// result (probe counters, truncated-superset markers).
func SubsetSkylineCtx(ctx context.Context, g *Graph, t *SkylineTree, sub []int32) *skytree.SubsetResult {
	return skytree.SubsetSkylineCtx(ctx, g, t, sub)
}

// CandidatesCtx is Candidates under a context; a truncated run returns
// the not-yet-pruned candidate superset.
func CandidatesCtx(ctx context.Context, g *Graph, opts Options) []int32 {
	return core.FilterPhaseCtx(ctx, g, opts).Candidates
}

// AllDominationsCtx is AllDominations under a context; see
// PartialOrder.Truncated.
func AllDominationsCtx(ctx context.Context, g *Graph, opts Options) *PartialOrder {
	return core.AllDominationsCtx(ctx, g, opts)
}

// MaximizeGroupCentralityCtx is MaximizeGroupCentrality under a
// context. On cancellation Group is the prefix of true greedy picks
// committed so far (Truncated/Err set).
func MaximizeGroupCentralityCtx(ctx context.Context, g *Graph, k int, m Measure, opts centrality.Options) *GroupResult {
	return centrality.GreedyCtx(ctx, g, k, m, opts)
}

// MaxCliqueCtx is MaxClique under a context. On cancellation Clique is
// the incumbent: a genuine clique, possibly not maximum.
func MaxCliqueCtx(ctx context.Context, g *Graph) *CliqueResult {
	return clique.NeiSkyMCCtx(ctx, g)
}

// MaxCliqueBaseCtx is MaxCliqueBase under a context.
func MaxCliqueBaseCtx(ctx context.Context, g *Graph) *CliqueResult {
	return clique.BaseMCCCtx(ctx, g)
}

// TopKCliqueResult reports a top-k clique computation, including the
// Truncated/Err anytime markers.
type TopKCliqueResult = clique.TopKResult

// TopKCliquesCtx is TopKCliques under a context, returning the full
// result so callers can observe truncation. Every listed clique is
// genuine even when truncated.
func TopKCliquesCtx(ctx context.Context, g *Graph, k int) *TopKCliqueResult {
	return clique.NeiSkyTopkMCCCtx(ctx, g, k)
}

// MaxIndependentSetCtx is MaxIndependentSet under a context, returning
// the full result; on cancellation Set is the incumbent independent
// set.
func MaxIndependentSetCtx(ctx context.Context, g *Graph) *mis.Result {
	return mis.MaxCtx(ctx, g)
}

// IndependentSetGreedyCtx is IndependentSetGreedy under a context.
func IndependentSetGreedyCtx(ctx context.Context, g *Graph) *mis.Result {
	return mis.GreedyCtx(ctx, g)
}

// MaximizeGroupBetweennessCtx is MaximizeGroupBetweenness under a
// context, returning the full result. The skyline phase and the greedy
// rounds both honor ctx; a skyline truncated mid-phase is still a sound
// (superset) candidate pool.
func MaximizeGroupBetweennessCtx(ctx context.Context, g *Graph, k, sources int, seed uint64) *betweenness.Result {
	return betweenness.NeiSkyGBCtx(ctx, g, k, sources, seed)
}
