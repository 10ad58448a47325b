package neisky

import (
	"neisky/internal/betweenness"
	"neisky/internal/centrality"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/mis"
	"neisky/internal/pll"
	"neisky/internal/skytree"
	"neisky/internal/twins"
)

// This file exposes the extensions built on top of the paper's core:
// sharded skyline computation, the approximate skyline the paper's
// closing remark calls for, dynamic maintenance under edge updates,
// group betweenness maximization (the application §IV-D defers to
// future work), and the maximum-independent-set reduction from the
// paper's introduction.

// ShardOptions tune SkylineSharded: shard count, worker-pool size, the
// register-sketch ablation switch, and the per-shard paging-hint
// callback for mmap-backed snapshots.
type ShardOptions = core.ShardOptions

// SkylineSharded computes the skyline with the fused sharded engine:
// contiguous work-balanced vertex shards, a refine-first single pass
// per shard, and per-vertex cardinality sketches as a no-false-negative
// dominance pre-filter. Results are identical to Skyline.
func SkylineSharded(g *Graph, opts Options, so ShardOptions) *Result {
	return core.ShardedFilterRefineSky(g, opts, so)
}

// ApproxSkyline computes the ε-skyline: u may ε-dominate v while
// missing up to an ε fraction of v's neighbors. ε = 0 is the exact
// skyline. See internal/core/approx.go for the formalization.
func ApproxSkyline(g *Graph, eps float64, opts Options) *Result {
	return core.ApproxSkyline(g, eps, opts)
}

// EpsDominates reports the ε-domination order used by ApproxSkyline.
func EpsDominates(g *Graph, u, v int32, eps float64) bool {
	return core.EpsDominates(g, u, v, eps)
}

// SkylineMaintainer maintains a skyline and its canonical O array under
// edge insertions and deletions, re-deciding per op only the pairs the
// op can break.
type SkylineMaintainer = dynsky.Maintainer

// NewSkylineMaintainer seeds a maintainer from a static graph.
func NewSkylineMaintainer(g *Graph) *SkylineMaintainer { return dynsky.New(g) }

// SkylineTree is the layered dominance index: every vertex's peel layer
// (layer 0 = the neighborhood skyline) plus its canonical dominator
// witness one layer up.
type SkylineTree = skytree.Tree

// SkylineTreeOptions tune index construction.
type SkylineTreeOptions = skytree.BuildOptions

// BuildSkylineTree constructs the layered dominance index of g by
// repeated sharded filter/refine peels.
func BuildSkylineTree(g *Graph, opts SkylineTreeOptions) *SkylineTree {
	return skytree.Build(g, opts)
}

// SkylineTreeMaintainer keeps a layered dominance index exact under
// edge insertions and deletions, re-deciding at each level only the
// vertices whose rows an update changed and the vertices those can
// newly dominate or stop dominating.
type SkylineTreeMaintainer = skytree.Maintainer

// NewSkylineTreeMaintainer builds a maintainer for g (initial index
// built from scratch).
func NewSkylineTreeMaintainer(g *Graph, opts SkylineTreeOptions) *SkylineTreeMaintainer {
	return skytree.NewMaintainer(g, opts)
}

// SubsetSkyline computes the neighborhood skyline of the subgraph
// induced by sub, using t (may be nil) to steer the probe order.
func SubsetSkyline(g *Graph, t *SkylineTree, sub []int32) []int32 {
	return skytree.SubsetSkyline(g, t, sub).Skyline
}

// NewEmptySkylineMaintainer starts from an edgeless graph on n
// vertices.
func NewEmptySkylineMaintainer(n int) *SkylineMaintainer { return dynsky.NewEmpty(n) }

// VertexBetweenness computes exact betweenness centrality (Brandes).
func VertexBetweenness(g *Graph) []float64 { return betweenness.Vertex(g) }

// GroupBetweenness evaluates the group betweenness of s; sources == 0
// computes exactly, otherwise a sampled estimate.
func GroupBetweenness(g *Graph, s []int32, sources int, seed uint64) float64 {
	return betweenness.Group(g, s, betweenness.Options{Sources: sources, Seed: seed})
}

// MaximizeGroupBetweenness greedily selects a k-vertex group with large
// group betweenness, restricting candidates to the neighborhood skyline
// (the pruning the paper conjectures for betweenness; heuristic).
func MaximizeGroupBetweenness(g *Graph, k, sources int, seed uint64) ([]int32, float64) {
	res := betweenness.NeiSkyGB(g, k, sources, seed)
	return res.Group, res.Value
}

// MaxIndependentSet computes a maximum independent set exactly by
// branch-and-bound with the neighborhood-inclusion reduction (moderate
// graph sizes).
func MaxIndependentSet(g *Graph) []int32 { return mis.Max(g).Set }

// IndependentSetGreedy computes an independent set with the min-degree
// heuristic plus reductions.
func IndependentSetGreedy(g *Graph) []int32 { return mis.Greedy(g).Set }

// ReduceForIndependentSet kernelizes g with the degree and
// neighborhood-inclusion rules; |MIS(g)| = len(forced) + |MIS(kernel)|.
func ReduceForIndependentSet(g *Graph) (forced, kernel []int32) {
	forced, kernel, _ = mis.Reduce(g)
	return forced, kernel
}

// IsIndependentSet verifies pairwise non-adjacency.
func IsIndependentSet(g *Graph, set []int32) bool { return mis.IsIndependent(g, set) }

// PartialOrder holds every domination pair of a graph (the full
// positional-dominance computation of the paper's reference [7], which
// the skyline problem deliberately avoids).
type PartialOrder = core.PartialOrder

// AllDominations enumerates the complete domination order. Use
// PartialOrder.Layers for the domination-depth hierarchy.
func AllDominations(g *Graph, opts Options) *PartialOrder {
	return core.AllDominations(g, opts)
}

// TwinClasses partitions vertices into neighborhood-equivalence (twin)
// classes: within a class every vertex but the minimum ID is dominated.
func TwinClasses(g *Graph) [][]int32 { return twins.Classes(g) }

// CollapseTwins returns the twin-quotient graph, the original ID of
// each quotient vertex, and each original vertex's class index.
func CollapseTwins(g *Graph) (q *Graph, rep []int32, classOf []int32) {
	return twins.Quotient(g)
}

// DistanceIndex is a pruned-landmark-labeling index answering exact
// shortest-path distance queries (−1 for disconnected pairs).
type DistanceIndex = pll.Index

// BuildDistanceIndex constructs a PLL index over g (hub-first landmark
// order; exact queries in O(label) time).
func BuildDistanceIndex(g *Graph) *DistanceIndex { return pll.Build(g) }

// GroupValueIndexed evaluates a group centrality through a prebuilt
// distance index instead of BFS — handy when scoring many candidate
// groups against one graph.
func GroupValueIndexed(g *Graph, ix *DistanceIndex, s []int32, m Measure) float64 {
	return centrality.GroupValueWithOracle(g, ix, s, m)
}
