package skytree

import (
	"context"
	"fmt"

	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/runctl"
)

// Maintainer keeps a layered dominance index exact under edge
// insertions and deletions. It holds the mutable adjacency as a
// dynsky.Rows overlay on the seed CSR and the layer and parent arrays
// on top of it; layer 0 is the skyline (KeepIsolated), so no separate
// level-0 maintainer runs beside it (Tree.SkylineSize derives |R|).
//
// Locality. An update to edge (u, v) can flip a level-k domination
// pair (w, x) only when the edge is incident to x or w, which confines
// the directly-affected vertices to the 2-hop neighborhoods of the
// endpoints (Definition 2's locality, level by level). Layer REASSIGNMENTS
// can then cascade: x's level-k status reads the S_k membership of x's
// neighbors, of its candidate dominators (2 hops), and — through the
// mutual-inclusion tie check — of the candidates' neighbors (3 hops).
// The maintainer therefore re-peels a dirty region seeded with the
// union of the endpoints' 2-hop neighborhoods before and after the
// update, and extends it with the 3-hop neighborhood of every vertex
// whose layer actually changed, iterating to a fixpoint. The peel's
// layering is the unique assignment that is locally consistent at
// every vertex, so when the cascade stops growing the incremental
// result equals a from-scratch rebuild — the oracle property the test
// battery checks on random update streams.
//
// Typical updates touch a handful of vertices; a pathological update
// (one that re-layers a hub's whole neighborhood) degrades gracefully
// toward a full re-peel.
type Maintainer struct {
	rows   *dynsky.Rows
	layer  []int32
	parent []int32
	counts []int // per-layer vertex counts (termination bound + stats)

	scratch struct {
		dirty    []int32
		inDirty  []bool
		baseline []int32 // layer value when the vertex entered dirty
	}
}

// NewMaintainer builds a maintainer for g, constructing the initial
// tree from scratch (see Build).
func NewMaintainer(g *graph.Graph, opts BuildOptions) *Maintainer {
	return NewMaintainerFromTree(g, Build(g, opts))
}

// NewMaintainerFromTree seeds a maintainer from an existing complete
// tree of g, skipping the from-scratch peel — the path the serving
// daemon uses to carry the index across an edge-batch snapshot swap.
// It runs no skyline engine. Truncated trees are rejected (their
// unassigned layers would poison every locality argument). Like
// dynsky.Rows, the maintainer reads g's storage until Graph returns.
func NewMaintainerFromTree(g *graph.Graph, t *Tree) *Maintainer {
	if t.Truncated {
		panic("skytree: NewMaintainerFromTree needs a complete tree")
	}
	if t.N() != g.N() {
		panic(fmt.Sprintf("skytree: tree has %d vertices, graph %d", t.N(), g.N()))
	}
	m := &Maintainer{
		rows:   dynsky.NewRows(g),
		layer:  append([]int32(nil), t.layer...),
		parent: append([]int32(nil), t.parent...),
	}
	m.counts = make([]int, t.NumLayers())
	for _, l := range m.layer {
		m.counts[l]++
	}
	m.scratch.inDirty = make([]bool, g.N())
	m.scratch.baseline = make([]int32, g.N())
	return m
}

// N returns the vertex count.
func (m *Maintainer) N() int { return m.rows.N() }

// M returns the current edge count.
func (m *Maintainer) M() int { return m.rows.M() }

// Layer returns v's current dominance layer.
func (m *Maintainer) Layer(v int32) int32 { return m.layer[v] }

// Parent returns v's current parent witness (-1 for layer 0).
func (m *Maintainer) Parent(v int32) int32 { return m.parent[v] }

// NumLayers returns the current number of layers.
func (m *Maintainer) NumLayers() int { return len(m.counts) }

// Tree snapshots the current index as an immutable Tree.
func (m *Maintainer) Tree() *Tree {
	t := &Tree{
		layer:  append([]int32(nil), m.layer...),
		parent: append([]int32(nil), m.parent...),
	}
	t.buildLayerLists()
	return t
}

// Graph snapshots the current adjacency as an immutable CSR graph (see
// dynsky.Rows.Graph).
func (m *Maintainer) Graph() *graph.Graph { return m.rows.Graph() }

// AddEdge inserts the undirected edge (u, v) and re-layers the affected
// region. Reports whether the edge was new.
func (m *Maintainer) AddEdge(u, v int32) bool {
	if !m.rows.AddEdge(u, v) {
		return false
	}
	// Insertion only grows rows: the 2-hop region after it contains
	// the region before it.
	m.seed(u, v)
	m.update()
	return true
}

// RemoveEdge deletes the undirected edge (u, v) and re-layers the
// affected region. Reports whether the edge existed.
func (m *Maintainer) RemoveEdge(u, v int32) bool {
	if u == v || !m.rows.Has(u, v) {
		return false
	}
	// Deletion only shrinks rows: the 2-hop region before it contains
	// the region after it.
	m.seed(u, v)
	m.rows.RemoveEdge(u, v)
	m.update()
	return true
}

// Apply executes a batch of updates, returning how many changed the
// graph.
func (m *Maintainer) Apply(ops []dynsky.Op) int {
	_, applied, _ := dynsky.ApplyRun(nil, ops, m.AddEdge, m.RemoveEdge)
	return applied
}

// ApplyCtx is Apply under a context. Updates are atomic — the index is
// exact for the prefix applied so far — so cancellation lands between
// ops, returning the applied count and the cause.
func (m *Maintainer) ApplyCtx(ctx context.Context, ops []dynsky.Op) (applied int, err error) {
	_, applied, err = m.ApplyPrefixCtx(ctx, ops)
	return applied, err
}

// ApplyPrefixCtx is ApplyCtx, additionally reporting the processed
// prefix length (processed ≥ applied; no-op updates are processed but
// not applied) — the prefix the serving daemon's write-ahead log
// persists so a replay reproduces this exact state.
func (m *Maintainer) ApplyPrefixCtx(ctx context.Context, ops []dynsky.Op) (processed, applied int, err error) {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return dynsky.ApplyRun(run, ops, m.AddEdge, m.RemoveEdge)
}

// enter adds v to the dirty set, recording its current layer as the
// baseline outside observers last saw.
func (m *Maintainer) enter(v int32) {
	if m.scratch.inDirty[v] {
		return
	}
	m.scratch.inDirty[v] = true
	m.scratch.baseline[v] = m.layer[v]
	m.scratch.dirty = append(m.scratch.dirty, v)
}

// seed starts the dirty set of an update to edge (u, v) with u, v and
// every vertex within two hops of either under the current rows.
func (m *Maintainer) seed(u, v int32) {
	m.scratch.dirty = m.scratch.dirty[:0]
	for _, s := range [2]int32{u, v} {
		m.enter(s)
		for _, x := range m.rows.Neighbors(s) {
			m.enter(x)
			for _, y := range m.rows.Neighbors(x) {
				m.enter(y)
			}
		}
	}
}

// update re-layers the region an edge update can affect: the seeded
// dirty set (the union of the endpoints' 2-hop neighborhoods before and
// after the update), then the cascade closure described on Maintainer.
func (m *Maintainer) update() {
	r := obs.Get()
	defer r.Start("skytree.update").End()

	for {
		m.peelLocal(m.scratch.dirty)
		// Extend with the 3-hop neighborhoods of vertices whose layer
		// moved off its baseline; those layers are what the predicates
		// of not-yet-dirty vertices read.
		grew := false
		for _, v := range m.scratch.dirty {
			if m.layer[v] != m.scratch.baseline[v] {
				m.absorb3Hop(v, &grew)
			}
		}
		if !grew {
			break
		}
	}
	r.Add("skytree.update.dirty", int64(len(m.scratch.dirty)))

	// Parents: every dirty vertex gets its canonical witness
	// recomputed; vertices outside the closure kept their layer and
	// their 3-hop layers, so their witnesses are unchanged.
	for _, v := range m.scratch.dirty {
		m.parent[v] = parentOf(m.rows, m.layer, v)
		m.scratch.inDirty[v] = false
	}
}

// absorb3Hop marks the 3-hop neighborhood of v dirty; grew is set when
// any vertex was new.
func (m *Maintainer) absorb3Hop(v int32, grew *bool) {
	pre := len(m.scratch.dirty)
	m.enter(v)
	for _, a := range m.rows.Neighbors(v) {
		m.enter(a)
		for _, b := range m.rows.Neighbors(a) {
			m.enter(b)
			for _, c := range m.rows.Neighbors(b) {
				m.enter(c)
			}
		}
	}
	if len(m.scratch.dirty) > pre {
		*grew = true
	}
}

// maxStableLayer returns the deepest layer of any vertex, from the
// maintained histogram (an upper bound for the peel's termination
// guard).
func (m *Maintainer) maxStableLayer() int32 {
	for k := len(m.counts) - 1; k >= 0; k-- {
		if m.counts[k] > 0 {
			return int32(k)
		}
	}
	return -1
}

// setLayer moves v to layer l (or to the unassigned state, l == -1),
// maintaining the histogram.
func (m *Maintainer) setLayer(v, l int32) {
	if old := m.layer[v]; old >= 0 {
		m.counts[old]--
	}
	m.layer[v] = l
	if l >= 0 {
		for int(l) >= len(m.counts) {
			m.counts = append(m.counts, 0)
		}
		m.counts[l]++
	}
	for len(m.counts) > 0 && m.counts[len(m.counts)-1] == 0 {
		m.counts = m.counts[:len(m.counts)-1]
	}
}

// peelLocal recomputes the layers of the dirty vertices with a
// level-by-level peel, treating every other vertex's layer as fixed.
// Unassigned dirty vertices count as members of every remaining set
// until the round that assigns them — exactly the global peel's view.
// A vertex the kernel finds undominated in S_k, including one isolated
// there (KeepIsolated), takes layer k.
func (m *Maintainer) peelLocal(dirty []int32) {
	kn := core.Kernel{G: m.rows}
	for _, v := range dirty {
		m.setLayer(v, -1) // histogram tolerates -1 via the old>=0 guard
	}
	// Bound: once k exceeds every stable layer, only undecided dirty
	// vertices remain in S_k, and dominance among them is a strict
	// partial order, so each further round assigns at least one.
	bound := m.maxStableLayer() + int32(len(dirty)) + 2
	undecided := append([]int32(nil), dirty...)
	for k := int32(0); len(undecided) > 0; k++ {
		if k > bound {
			panic("skytree: local peel failed to converge (invariant violation)")
		}
		kn.S = core.Level(m.layer, k)
		still := undecided[:0]
		for _, v := range undecided {
			if kn.FirstDominator(v) >= 0 {
				still = append(still, v)
			} else {
				m.setLayer(v, k)
			}
		}
		undecided = still
	}
}
