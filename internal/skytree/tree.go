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
// serves. Children links are the inverse relation, and the per-layer
// vertex lists the layers' members; both are materialized on demand.
// The layer and parent arrays are copy-on-write paged arrays
// (internal/paged), so a carried tree shares every page its ops did
// not write with the tree it came from.
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
	"slices"
	"sync"

	"neisky/internal/core"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/paged"
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
	layer  paged.Array[int32] // layer(v) ≥ 0; -1 only in truncated builds
	parent paged.Array[int32] // parent(v) = -1 for layer-0 (and unassigned) vertices
	counts []int              // counts[k] = size of layer k

	layerOnce sync.Once
	layers    [][]int32 // layers[k] = vertices of layer k, ascending IDs

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
	layer := make([]int32, n)
	for v := range layer {
		layer[v] = -1
	}
	t := &Tree{}

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
			layer[s] = k
		}
		t.counts = append(t.counts, len(res.Skyline))
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
				if layer[v] < 0 {
					keep = append(keep, v)
				}
			}
			local = keep
		} else {
			local = make([]int32, 0, remaining)
			for i, v := range orig {
				if layer[v] < 0 {
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

	t.layer = paged.From(layer)
	run := runctl.FromContext(ctx)
	defer run.Release()
	t.parent = paged.From(t.parents(run, g))
	return t
}

// parents returns the parent array: every assigned vertex of layer ≥ 1
// gets its canonical witness (parentOf), and the rest -1.
func (t *Tree) parents(run *runctl.Run, g *graph.Graph) []int32 {
	parent := make([]int32, g.N())
	cp := run.Checkpoint(checkEvery)
	stopped := false
	for v := range parent {
		v := int32(v)
		parent[v] = -1
		if stopped || t.layer.Get(v) <= 0 {
			continue
		}
		if stopped = cp.Tick(); stopped {
			t.Truncated = true
			if t.Err == nil {
				t.Err = run.Err()
			}
			continue
		}
		parent[v] = parentOf(g, &t.layer, v)
	}
	return parent
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
func parentOf(g core.Adj, layer *paged.Array[int32], v int32) int32 {
	l := layer.Get(v)
	if l <= 0 {
		return -1
	}
	kn := core.Kernel{G: g, S: core.Level(layer, l-1)}
	return kn.SmallestDominator(v)
}

// layerLists returns the per-layer vertex lists (ascending — the scan
// order guarantees it), materializing them on first use: one O(n)
// pass, which a carried tree pays only when a query reads the lists.
func (t *Tree) layerLists() [][]int32 {
	t.layerOnce.Do(func() {
		t.layers = make([][]int32, len(t.counts))
		for k := range t.layers {
			t.layers[k] = make([]int32, 0, t.counts[k])
		}
		for v := int32(0); v < int32(t.N()); v++ {
			if l := t.layer.Get(v); l >= 0 {
				t.layers[l] = append(t.layers[l], v)
			}
		}
	})
	return t.layers
}

// N returns the vertex count.
func (t *Tree) N() int { return t.layer.Len() }

// NumLayers returns the number of dominance layers.
func (t *Tree) NumLayers() int { return len(t.counts) }

// Layer returns v's dominance layer (0 = skyline; -1 only when the
// build was truncated before reaching v's level).
func (t *Tree) Layer(v int32) int32 { return t.layer.Get(v) }

// Parent returns v's canonical dominator witness in layer Layer(v)-1,
// or -1 for layer-0 and unassigned vertices.
func (t *Tree) Parent(v int32) int32 { return t.parent.Get(v) }

// LayerVertices returns the vertices of layer k in ascending ID order.
// The slice is shared — callers must not mutate it.
func (t *Tree) LayerVertices(k int) []int32 {
	if k < 0 || k >= len(t.counts) {
		return nil
	}
	return t.layerLists()[k]
}

// LayerSizes returns the per-layer vertex counts.
func (t *Tree) LayerSizes() []int { return slices.Clone(t.counts) }

// TopK returns layers 0..k-1 (fewer when the tree is shallower). The
// inner slices are shared — callers must not mutate them.
func (t *Tree) TopK(k int) [][]int32 {
	k = max(0, min(k, len(t.counts)))
	return t.layerLists()[:k:k]
}

// Explain returns the dominator chain from v to the skyline: v itself,
// then parent(v), parent(parent(v)), ..., ending at a layer-0 vertex.
// Each hop ascends exactly one layer, so the chain has Layer(v)+1
// entries. Unassigned vertices (truncated builds) get a 1-chain.
func (t *Tree) Explain(v int32) []int32 {
	chain := []int32{v}
	for p := t.parent.Get(v); p >= 0; p = t.parent.Get(v) {
		v = p
		chain = append(chain, v)
	}
	return chain
}

// Children returns the vertices whose parent witness is v (ascending).
// The inverse index is materialized once, on first use.
func (t *Tree) Children(v int32) []int32 {
	t.childOnce.Do(func() {
		t.children = make([][]int32, t.N())
		for u := int32(0); u < int32(t.N()); u++ {
			if p := t.parent.Get(u); p >= 0 {
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
// has R = {0}. t must be complete. The count is O(1): it reads the
// layer counts and g's isolated-vertex count, not the layer lists.
func (t *Tree) SkylineSize(g *graph.Graph) int {
	switch {
	case g.M() > 0:
		return t.counts[0] - g.Isolated()
	case g.N() > 0:
		return 1
	}
	return 0
}

// Equal reports whether two trees assign identical layers and parents
// (the incremental-maintenance oracle's equality).
func (t *Tree) Equal(o *Tree) bool {
	if t.N() != o.N() {
		return false
	}
	for v := int32(0); v < int32(t.N()); v++ {
		if t.layer.Get(v) != o.layer.Get(v) || t.parent.Get(v) != o.parent.Get(v) {
			return false
		}
	}
	return true
}
