// Package skytree builds and maintains the layered dominance index of
// a graph's neighborhood-skyline order — the "skyline tree" of the DEG
// line of work, adapted to the paper's neighborhood-inclusion order.
//
// Peeling the skyline repeatedly stratifies the vertex set: layer 0 is
// the neighborhood skyline of G, and layer k is the skyline of the
// subgraph induced by the vertices left after removing layers < k.
// Every level uses the paper's algorithmic treatment of isolated
// vertices (core.Options.KeepIsolated): a vertex isolated in the
// remainder is maximal in its level. That choice keeps every level's
// status a 2-hop-local property — the foundation of both the index's
// incremental maintenance (Maintainer) and its locality-based query
// shapes — and bounds the number of levels by the peeling depth
// instead of degenerating to one level per vertex on star-like tails.
//
// Alongside its layer, every dominated vertex carries a parent link:
// the canonical "who dominates me" witness, defined as the minimum-ID
// vertex of layer k-1 that dominates it in the level-(k-1) induced
// subgraph. Parent chains therefore ascend exactly one layer per hop
// and end at a layer-0 vertex — the dominator chain /v1/skyline/explain
// serves. Children links are the inverse relation, materialized on
// demand.
//
// Construction reuses the sharded fused filter/refine engine
// (core.ShardedFilterRefineSky, register-sketch pre-filter included)
// once per level on the materialized remainder, then assigns parents
// with one pivot scan per dominated vertex against the full CSR. That
// scan, the maintainer's level predicates and subset queries are all
// core's dominance kernel (core.Kernel), scoped to a level or to Q.
package skytree

import (
	"context"
	"sync"

	"neisky/internal/core"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/runctl"
)

// checkEvery is the cancellation-poll granularity of the parent pass
// and the subset scans (each unit is a pivot-range dominance scan, the
// same cost class as the refine phase's).
const checkEvery = 64

// Tree is the immutable layered dominance index of one graph snapshot.
// Construct with Build (or Maintainer.Tree) and share freely: all
// methods are safe for concurrent use.
type Tree struct {
	layer  []int32   // layer[v] ≥ 0; -1 only in truncated builds
	parent []int32   // parent[v] = -1 for layer-0 (and unassigned) vertices
	layers [][]int32 // layers[k] = vertices of layer k, ascending IDs

	childOnce sync.Once
	children  [][]int32

	// Truncated marks a cancelled build: vertices with layer -1 were
	// never assigned (their true layer is ≥ the deepest completed
	// level), and Err carries the cause. Complete trees have it false.
	Truncated bool
	Err       error
}

// BuildOptions tune construction.
type BuildOptions struct {
	// Shards and Workers configure the per-level sharded engine; zero
	// values take the engine defaults (4×GOMAXPROCS shards).
	Shards  int
	Workers int
}

// Build constructs the layered dominance index of g.
func Build(g *graph.Graph, opts BuildOptions) *Tree {
	return BuildCtx(context.Background(), g, opts)
}

// BuildCtx is Build under a context. A cancelled build returns a
// truncated tree: every assigned (layer ≥ 0) vertex is final, deeper
// vertices are unassigned (see Tree.Truncated). Cancellation and
// deadlines are honored across the whole build; a runctl work budget
// applies per stage (each level's peel and the parent pass derive
// their own run from ctx).
func BuildCtx(ctx context.Context, g *graph.Graph, opts BuildOptions) *Tree {
	r := obs.Get()
	defer r.Start("skytree.build").End()

	n := int32(g.N())
	t := &Tree{layer: make([]int32, n), parent: make([]int32, n)}
	for v := int32(0); v < n; v++ {
		t.layer[v] = -1
		t.parent[v] = -1
	}

	so := core.ShardOptions{Shards: opts.Shards, Workers: opts.Workers}
	copts := core.Options{KeepIsolated: true}

	// Peel: level k's skyline is computed on the materialized remainder
	// (the sharded engine's sketches and hub bitmaps are per-snapshot
	// caches, so each level's subgraph carries its own). orig maps the
	// current remainder's dense IDs back to g's.
	cur := g
	orig := []int32(nil) // nil = identity (level 0 runs on g itself)
	remaining := int(n)
	for k := int32(0); remaining > 0; k++ {
		res := core.ShardedFilterRefineSkyCtx(ctx, cur, copts, so)
		if res.Truncated {
			t.Truncated = true
			t.Err = res.Err
			break
		}
		r.Add("skytree.build.levels", 1)
		for _, s := range res.Skyline {
			if orig != nil {
				s = orig[s]
			}
			t.layer[s] = k
		}
		remaining -= len(res.Skyline)
		if remaining == 0 {
			break
		}
		// Materialize the next remainder: everything not yet layered,
		// in original IDs (keep) and in cur's IDs (local, a survivor's
		// position in orig).
		keep := make([]int32, 0, remaining)
		var local []int32
		if orig == nil {
			for v := int32(0); v < n; v++ {
				if t.layer[v] < 0 {
					keep = append(keep, v)
				}
			}
			local = keep
		} else {
			local = make([]int32, 0, remaining)
			for i, v := range orig {
				if t.layer[v] < 0 {
					keep = append(keep, v)
					local = append(local, int32(i))
				}
			}
		}
		// keep is ascending in original IDs, so the dense relabeling is
		// order-preserving and every level's ID tie-breaks agree with
		// the original graph's.
		cur, _ = cur.InducedSubgraph(local)
		orig = keep
	}

	run := runctl.FromContext(ctx)
	defer run.Release()
	t.assignParents(run, g)
	t.buildLayerLists()
	return t
}

// assignParents fills parent[v] for every assigned vertex of layer ≥ 1
// with its canonical witness (parentOf).
func (t *Tree) assignParents(run *runctl.Run, g *graph.Graph) {
	cp := run.Checkpoint(checkEvery)
	for v := int32(0); v < int32(g.N()); v++ {
		if t.layer[v] <= 0 {
			continue
		}
		if cp.Tick() {
			t.Truncated = true
			if t.Err == nil {
				t.Err = run.Err()
			}
			return
		}
		t.parent[v] = parentOf(g, t.layer, v)
	}
}

// parentOf returns the canonical parent witness of v under layer on
// adjacency g: for layer[v] = k ≥ 1, the smallest-ID vertex of layer
// k-1 that dominates v in the level-(k-1) induced subgraph, and -1 for
// layer 0. Such a witness always exists: dominance at a fixed level is
// a finite strict partial order, so above any dominated vertex sits a
// maximal element of that level, and the maximal elements of level k-1
// are exactly layer k-1. Restricting the witness to the previous layer,
// rather than any dominator (whose own layer the peel does not order),
// makes parent chains ascend one layer per hop and end at layer 0.
func parentOf(g core.Adj, layer []int32, v int32) int32 {
	if layer[v] <= 0 {
		return -1
	}
	kn := core.Kernel{G: g, S: core.Level(layer, layer[v]-1)}
	return kn.SmallestDominator(v)
}

// buildLayerLists materializes the per-layer vertex lists (ascending —
// the scan order guarantees it).
func (t *Tree) buildLayerLists() {
	max := int32(-1)
	for _, l := range t.layer {
		if l > max {
			max = l
		}
	}
	t.layers = make([][]int32, max+1)
	counts := make([]int, max+1)
	for _, l := range t.layer {
		if l >= 0 {
			counts[l]++
		}
	}
	for k := range t.layers {
		t.layers[k] = make([]int32, 0, counts[k])
	}
	for v := int32(0); v < int32(len(t.layer)); v++ {
		if l := t.layer[v]; l >= 0 {
			t.layers[l] = append(t.layers[l], v)
		}
	}
}

// N returns the vertex count.
func (t *Tree) N() int { return len(t.layer) }

// NumLayers returns the number of dominance layers.
func (t *Tree) NumLayers() int { return len(t.layers) }

// Layer returns v's dominance layer (0 = skyline; -1 only when the
// build was truncated before reaching v's level).
func (t *Tree) Layer(v int32) int32 { return t.layer[v] }

// Parent returns v's canonical dominator witness in layer Layer(v)-1,
// or -1 for layer-0 and unassigned vertices.
func (t *Tree) Parent(v int32) int32 { return t.parent[v] }

// LayerVertices returns the vertices of layer k in ascending ID order.
// The slice is shared — callers must not mutate it.
func (t *Tree) LayerVertices(k int) []int32 {
	if k < 0 || k >= len(t.layers) {
		return nil
	}
	return t.layers[k]
}

// LayerSizes returns the per-layer vertex counts.
func (t *Tree) LayerSizes() []int {
	sizes := make([]int, len(t.layers))
	for k, l := range t.layers {
		sizes[k] = len(l)
	}
	return sizes
}

// TopK returns layers 0..k-1 (fewer when the tree is shallower). The
// inner slices are shared — callers must not mutate them.
func (t *Tree) TopK(k int) [][]int32 {
	if k > len(t.layers) {
		k = len(t.layers)
	}
	if k < 0 {
		k = 0
	}
	return t.layers[:k:k]
}

// Explain returns the dominator chain from v to the skyline: v itself,
// then parent(v), parent(parent(v)), ..., ending at a layer-0 vertex.
// Each hop ascends exactly one layer, so the chain has Layer(v)+1
// entries. Unassigned vertices (truncated builds) get a 1-chain.
func (t *Tree) Explain(v int32) []int32 {
	chain := []int32{v}
	for t.parent[v] >= 0 {
		v = t.parent[v]
		chain = append(chain, v)
	}
	return chain
}

// Children returns the vertices whose parent witness is v (ascending).
// The inverse index is materialized once, on first use.
func (t *Tree) Children(v int32) []int32 {
	t.childOnce.Do(func() {
		t.children = make([][]int32, len(t.layer))
		for u := int32(0); u < int32(len(t.parent)); u++ {
			if p := t.parent[u]; p >= 0 {
				t.children[p] = append(t.children[p], u)
			}
		}
	})
	return t.children[v]
}

// SkylineSize returns |R| for g, the graph t indexes, under the
// definitional treatment of isolated vertices that core uses by
// default. Layer 0 keeps isolated vertices (KeepIsolated), but an
// isolated vertex is dominated by any vertex with a neighbor and can
// itself dominate only another isolated vertex. So when g has an edge,
// R is layer 0 minus g's isolated vertices; an edgeless non-empty graph
// has R = {0}. t must be complete.
func (t *Tree) SkylineSize(g *graph.Graph) int {
	switch {
	case g.M() > 0:
		return len(t.LayerVertices(0)) - g.DegreeHist()[0]
	case g.N() > 0:
		return 1
	}
	return 0
}

// Equal reports whether two trees assign identical layers and parents
// (the incremental-maintenance oracle's equality).
func (t *Tree) Equal(o *Tree) bool {
	if len(t.layer) != len(o.layer) {
		return false
	}
	for v := range t.layer {
		if t.layer[v] != o.layer[v] || t.parent[v] != o.parent[v] {
			return false
		}
	}
	return true
}
