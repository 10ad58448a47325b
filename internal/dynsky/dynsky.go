// Package dynsky maintains a neighborhood skyline under edge insertions
// and deletions — the dynamic-graph extension of the paper's static
// problem.
//
// The locality that powers FilterRefineSky also powers maintenance: the
// domination predicate between x and w reads only N(x) and N(w), so an
// update to edge (u, v) can change the skyline status of exactly the
// vertices paired with u or v — that is, u, v themselves and vertices
// within two hops of either endpoint (before or after the update). The
// maintainer recomputes the exact status of that affected set per
// update; everything else is untouched.
//
// The same locality fixes the representation. The maintainer keeps the
// immutable CSR it was seeded with and gives a vertex a private sorted
// row only when an update touches it; every other row is read from the
// CSR in place. Graph merges the private rows into a fresh CSR,
// bulk-copying the untouched ranges, and rebases the maintainer onto
// it. Seeding costs one sharded skyline run over the CSR, a batch costs
// O(degree) per patched row plus the 2-hop recomputes, and neither
// allocates per vertex.
//
// Per-update cost is O(Σ_{x∈affected} deg(pivot(x))·deg(x)) — output
// sensitive in the size of the 2-hop neighborhoods around the touched
// edge, independent of n.
package dynsky

import (
	"context"
	"fmt"
	"slices"

	"neisky/internal/core"
	"neisky/internal/graph"
	"neisky/internal/runctl"
)

// Maintainer holds a mutable graph and its incrementally-maintained
// skyline. The vertex count is fixed at construction.
//
// The maintainer reads the storage of the graph it was seeded with
// (which may be an mmap) until Graph returns; callers must keep that
// graph alive until then.
type Maintainer struct {
	base *graph.Graph // rows of vertices without a private row
	// slot[u] > 0 means u's current row is rows[slot[u]-1]; 0 means
	// base.Neighbors(u). touched lists the vertices with a private row.
	slot    []int32
	rows    [][]int32
	touched []int32

	edges     int
	dominated []bool
	skySize   int

	// mark/marked collect a deduplicated vertex set (the 2-hop region
	// of an update); mark is all false between uses.
	mark   []bool
	marked []int32
}

// New builds a Maintainer seeded from g. The initial domination status
// of every vertex comes from one sharded skyline run over g.
func New(g *graph.Graph) *Maintainer {
	n := g.N()
	m := &Maintainer{
		base:      g,
		slot:      make([]int32, n),
		edges:     g.M(),
		dominated: make([]bool, n),
		mark:      make([]bool, n),
	}
	res := core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{})
	if res.Truncated {
		// No context reaches the run, so only a worker panic stops it.
		panic(fmt.Sprintf("dynsky: seeding skyline run stopped early: %v", res.Err))
	}
	for u := range m.dominated {
		m.dominated[u] = true
	}
	for _, u := range res.Skyline {
		m.dominated[u] = false
	}
	m.skySize = len(res.Skyline)
	return m
}

// NewEmpty builds a Maintainer for an edgeless graph on n vertices.
func NewEmpty(n int) *Maintainer {
	return New(graph.NewBuilder(n).Build())
}

// N returns the vertex count.
func (m *Maintainer) N() int { return len(m.slot) }

// M returns the current edge count.
func (m *Maintainer) M() int { return m.edges }

// Neighbors returns the current sorted adjacency row of u. The slice is
// shared with the maintainer and valid only until the next update or
// Graph call; callers must not modify it.
func (m *Maintainer) Neighbors(u int32) []int32 {
	if s := m.slot[u]; s > 0 {
		return m.rows[s-1]
	}
	return m.base.Neighbors(u)
}

// Degree returns the current degree of u.
func (m *Maintainer) Degree(u int32) int { return len(m.Neighbors(u)) }

// Has reports whether the edge (u, v) currently exists.
func (m *Maintainer) Has(u, v int32) bool {
	_, ok := slices.BinarySearch(m.Neighbors(u), v)
	return ok
}

// Affected2Hop returns u, v and every vertex within two hops of either
// under the CURRENT adjacency, in ascending order. The region whose
// domination pairs an update can touch is the union of this set before
// and after the update; an insertion only grows rows and a deletion only
// shrinks them, so callers maintaining derived indexes (internal/skytree)
// take it after an insertion and before a deletion.
func (m *Maintainer) Affected2Hop(u, v int32) []int32 {
	m.mark2Hop(u, v)
	out := slices.Clone(m.marked)
	m.unmark()
	slices.Sort(out)
	return out
}

// InSkyline reports whether v is currently in the skyline.
func (m *Maintainer) InSkyline(v int32) bool { return !m.dominated[v] }

// SkylineSize returns |R| without materializing the set.
func (m *Maintainer) SkylineSize() int { return m.skySize }

// Skyline materializes the current skyline in increasing ID order.
func (m *Maintainer) Skyline() []int32 {
	out := make([]int32, 0, m.skySize)
	for v, d := range m.dominated {
		if !d {
			out = append(out, int32(v))
		}
	}
	return out
}

// Graph snapshots the current adjacency as an immutable CSR graph: the
// private rows are merged into a fresh CSR and untouched rows are
// bulk-copied from the current one. The maintainer then rebases onto
// the result, so it no longer reads the graph it was seeded with. The
// result is never that seed graph, even when no update changed it.
func (m *Maintainer) Graph() *graph.Graph {
	slices.Sort(m.touched)
	rows := make([][]int32, len(m.touched))
	for i, u := range m.touched {
		rows[i] = m.rows[m.slot[u]-1]
		m.slot[u] = 0
	}
	m.base = m.base.Patch(m.touched, rows, m.edges)
	clear(m.rows)
	m.rows = m.rows[:0]
	m.touched = m.touched[:0]
	return m.base
}

// AddEdge inserts the undirected edge (u, v) and updates the skyline.
// It reports whether the edge was new. Self-loops are rejected.
func (m *Maintainer) AddEdge(u, v int32) bool {
	if u == v || m.Has(u, v) {
		return false
	}
	m.patch(u, v, true)
	m.patch(v, u, true)
	m.edges++
	// Insertion only grows rows, so the 2-hop region after it contains
	// the region before it.
	m.mark2Hop(u, v)
	m.recompute()
	return true
}

// RemoveEdge deletes the undirected edge (u, v) and updates the
// skyline. It reports whether the edge existed.
func (m *Maintainer) RemoveEdge(u, v int32) bool {
	if u == v || !m.Has(u, v) {
		return false
	}
	// Deletion only shrinks rows, so the 2-hop region before it
	// contains the region after it.
	m.mark2Hop(u, v)
	m.patch(u, v, false)
	m.patch(v, u, false)
	m.edges--
	m.recompute()
	return true
}

// patch inserts (add) or removes v in u's row, giving u a private copy
// of its base row on first touch. v must be absent (add) or present.
func (m *Maintainer) patch(u, v int32, add bool) {
	if m.slot[u] == 0 {
		b := m.base.Neighbors(u)
		m.rows = append(m.rows, append(make([]int32, 0, len(b)+1), b...))
		m.touched = append(m.touched, u)
		m.slot[u] = int32(len(m.rows))
	}
	row := &m.rows[m.slot[u]-1]
	i, _ := slices.BinarySearch(*row, v)
	if add {
		*row = slices.Insert(*row, i, v)
	} else {
		*row = slices.Delete(*row, i, i+1)
	}
}

// mark2Hop adds {u, v} plus all vertices within two hops of u or v
// under the CURRENT adjacency to the marked set.
func (m *Maintainer) mark2Hop(u, v int32) {
	for _, s := range [2]int32{u, v} {
		m.visit(s)
		for _, x := range m.Neighbors(s) {
			m.visit(x)
			for _, y := range m.Neighbors(x) {
				m.visit(y)
			}
		}
	}
}

func (m *Maintainer) visit(x int32) {
	if !m.mark[x] {
		m.mark[x] = true
		m.marked = append(m.marked, x)
	}
}

// unmark empties the marked set.
func (m *Maintainer) unmark() {
	for _, x := range m.marked {
		m.mark[x] = false
	}
	m.marked = m.marked[:0]
}

// recompute refreshes the exact domination status of every marked
// vertex and empties the marked set. An all-isolated graph flips status
// globally when its last edge disappears or first edge appears, so that
// case recomputes all.
func (m *Maintainer) recompute() {
	if m.edges <= 1 {
		// Cheap and rare: near-edgeless graphs have global isolated
		// tie-breaking, so refresh everything.
		for v := int32(0); v < int32(m.N()); v++ {
			m.setStatus(v, m.isDominated(v))
		}
	} else {
		// Isolated vertices outside the affected set keep "dominated"
		// status as long as some edge exists; nothing to do for them.
		for _, v := range m.marked {
			m.setStatus(v, m.isDominated(v))
		}
	}
	m.unmark()
}

func (m *Maintainer) setStatus(v int32, dominated bool) {
	if m.dominated[v] == dominated {
		return
	}
	m.dominated[v] = dominated
	if dominated {
		m.skySize--
	} else {
		m.skySize++
	}
}

// dominatesPair reports Definition 2 (x ≤ w) on the current adjacency.
func (m *Maintainer) dominatesPair(w, x int32) bool {
	if w == x {
		return false
	}
	if !m.openInClosed(x, w) {
		return false
	}
	if !m.openInClosed(w, x) {
		return true
	}
	return w < x
}

// openInClosed reports N(a) ⊆ N[b].
func (m *Maintainer) openInClosed(a, b int32) bool {
	na, nb := m.Neighbors(a), m.Neighbors(b)
	return len(na) <= len(nb)+1 && graph.RowsOpenInClosed(na, nb, b)
}

// isDominated evaluates x's status from scratch.
func (m *Maintainer) isDominated(x int32) bool {
	if m.Degree(x) == 0 {
		// Dominated by any non-isolated vertex; in an edgeless graph
		// the minimum ID survives.
		return m.edges > 0 || x != 0
	}
	return m.dominator(x) >= 0
}

// dominator returns the smallest-ID dominator of a non-isolated x, or
// -1 when x is in the skyline. Every dominator is adjacent to all of
// x's neighbors, so scanning the closed neighborhood of x's
// minimum-degree neighbor p is complete (same pivot argument as the
// static refine phase); p is tried first, then N(p) in ascending order.
func (m *Maintainer) dominator(x int32) int32 {
	nx := m.Neighbors(x)
	p := nx[0]
	for _, y := range nx[1:] {
		if m.Degree(y) < m.Degree(p) {
			p = y
		}
	}
	best := int32(-1)
	if m.dominatesPair(p, x) {
		best = p
	}
	for _, w := range m.Neighbors(p) {
		if best >= 0 && w > best {
			break
		}
		if m.dominatesPair(w, x) {
			return w
		}
	}
	return best
}

// ApplyEdgeList inserts a batch of edges and returns how many were new.
func (m *Maintainer) ApplyEdgeList(edges [][2]int32) int {
	added := 0
	for _, e := range edges {
		if m.AddEdge(e[0], e[1]) {
			added++
		}
	}
	return added
}

// Op is one edge update in a batch: an insertion (Add) or deletion of
// the undirected edge (U, V).
type Op struct {
	Add  bool
	U, V int32
}

// Apply executes a batch of updates and returns how many changed the
// graph (inserts of new edges, deletes of existing ones).
func (m *Maintainer) Apply(ops []Op) int {
	_, applied, _ := m.applyRun(nil, ops)
	return applied
}

// ApplyCtx is Apply under a context. Individual updates are atomic —
// the maintained skyline is always exact for the edges applied so far —
// so cancellation lands between ops: the batch stops after the current
// update, returning how many ops were applied and the cancellation
// cause (nil when the whole batch ran).
func (m *Maintainer) ApplyCtx(ctx context.Context, ops []Op) (applied int, err error) {
	_, applied, err = m.ApplyPrefixCtx(ctx, ops)
	return applied, err
}

// ApplyPrefixCtx is ApplyCtx, additionally reporting how many ops of
// the batch were processed before the run stopped. processed ≥ applied:
// an op that does not change the graph (duplicate insert, missing
// delete) is processed but not applied. The maintainer's state equals a
// fresh replay of exactly ops[:processed] — the prefix a write-ahead
// log must persist for replay to be oracle-equal.
func (m *Maintainer) ApplyPrefixCtx(ctx context.Context, ops []Op) (processed, applied int, err error) {
	run := runctl.FromContext(ctx)
	defer run.Release()
	return m.applyRun(run, ops)
}

func (m *Maintainer) applyRun(run *runctl.Run, ops []Op) (processed, applied int, err error) {
	cp := run.Checkpoint(1) // each op is already a 2-hop recompute
	for _, op := range ops {
		if cp.Tick() {
			return processed, applied, run.Err()
		}
		if op.Add {
			if m.AddEdge(op.U, op.V) {
				applied++
			}
		} else if m.RemoveEdge(op.U, op.V) {
			applied++
		}
		processed++
	}
	return processed, applied, nil
}

// Dominators lists, for diagnostic purposes, one dominator per
// currently-dominated vertex (computed on demand): the smallest-ID one.
func (m *Maintainer) Dominators() map[int32]int32 {
	out := make(map[int32]int32)
	// An isolated vertex is dominated by the smallest non-isolated
	// vertex, or by vertex 0 in an edgeless graph.
	first := int32(0)
	for w := int32(0); w < int32(m.N()); w++ {
		if m.Degree(w) > 0 {
			first = w
			break
		}
	}
	for x, d := range m.dominated {
		switch x := int32(x); {
		case !d:
		case m.Degree(x) == 0:
			out[x] = first
		default:
			out[x] = m.dominator(x)
		}
	}
	return out
}
