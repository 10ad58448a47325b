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
// The same locality fixes the representation. Rows keeps the immutable
// CSR it was seeded with and gives a vertex a private sorted row only
// when an update touches it; its Graph merges the private rows into a
// fresh CSR, bulk-copying the untouched ranges. Rows is the one
// representation of mutable graph state: the Maintainer here is Rows
// plus level-0 status, internal/skytree's maintainer is Rows plus
// layers, WAL recovery uses Rows alone, and all three apply batches
// through ApplyRun. New seeds a Maintainer with one sharded skyline run
// over the CSR; Seeded continues from a predecessor's Status instead,
// which costs a copy of n bools, not a skyline run. A batch costs
// O(degree) per patched row plus the 2-hop recomputes, and neither
// seeding nor a batch allocates per vertex.
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
	rows      *Rows
	dominated []bool
	skySize   int

	// mark/marked collect a deduplicated vertex set (the 2-hop region
	// of an update); mark is all false between uses.
	mark   []bool
	marked []int32
}

// New builds a Maintainer seeded from g. The initial domination status
// of every vertex comes from one sharded skyline run over g; a caller
// that holds g's exact status already seeds with Seeded instead.
func New(g *graph.Graph) *Maintainer {
	res := core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{})
	if res.Truncated {
		// No context reaches the run, so only a worker panic stops it.
		panic(fmt.Sprintf("dynsky: seeding skyline run stopped early: %v", res.Err))
	}
	dominated := make([]bool, g.N())
	for u := range dominated {
		dominated[u] = true
	}
	for _, u := range res.Skyline {
		dominated[u] = false
	}
	return Seeded(g, dominated)
}

// Seeded builds a Maintainer over g from g's exact domination status
// (dominated[v] reports v ∉ R, as Status returns it), which it copies:
// O(n), with no skyline run. A wrong status is not detected, and every
// later answer inherits it.
func Seeded(g *graph.Graph, dominated []bool) *Maintainer {
	if len(dominated) != g.N() {
		panic(fmt.Sprintf("dynsky: status of %d vertices for a graph of %d", len(dominated), g.N()))
	}
	m := &Maintainer{rows: NewRows(g), dominated: slices.Clone(dominated), mark: make([]bool, g.N())}
	for _, d := range dominated {
		if !d {
			m.skySize++
		}
	}
	return m
}

// NewEmpty builds a Maintainer for an edgeless graph on n vertices.
func NewEmpty(n int) *Maintainer {
	return New(graph.NewBuilder(n).Build())
}

// N returns the vertex count.
func (m *Maintainer) N() int { return m.rows.N() }

// M returns the current edge count.
func (m *Maintainer) M() int { return m.rows.M() }

// Neighbors returns the current sorted adjacency row of u. The slice is
// shared with the maintainer and valid only until the next update or
// Graph call; callers must not modify it.
func (m *Maintainer) Neighbors(u int32) []int32 { return m.rows.Neighbors(u) }

// Degree returns the current degree of u.
func (m *Maintainer) Degree(u int32) int { return m.rows.Degree(u) }

// Has reports whether the edge (u, v) currently exists.
func (m *Maintainer) Has(u, v int32) bool { return m.rows.Has(u, v) }

// InSkyline reports whether v is currently in the skyline.
func (m *Maintainer) InSkyline(v int32) bool { return !m.dominated[v] }

// SkylineSize returns |R| without materializing the set.
func (m *Maintainer) SkylineSize() int { return m.skySize }

// Status returns the current domination status by vertex ID (true: not
// in the skyline), the input Seeded takes for the graph Graph returns.
// The slice is the maintainer's own: later updates change it in place,
// and callers must not modify it.
func (m *Maintainer) Status() []bool { return m.dominated }

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

// Graph snapshots the current adjacency as an immutable CSR graph (see
// Rows.Graph); the maintainer then no longer reads the graph it was
// seeded with. The result is never that seed graph.
func (m *Maintainer) Graph() *graph.Graph { return m.rows.Graph() }

// AddEdge inserts the undirected edge (u, v) and updates the skyline.
// It reports whether the edge was new. Self-loops are rejected.
func (m *Maintainer) AddEdge(u, v int32) bool {
	if !m.rows.AddEdge(u, v) {
		return false
	}
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
	m.rows.RemoveEdge(u, v)
	m.recompute()
	return true
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

// recompute refreshes the exact domination status of every marked
// vertex and empties the marked set. An all-isolated graph flips status
// globally when its last edge disappears or first edge appears, so that
// case recomputes all.
func (m *Maintainer) recompute() {
	if m.M() <= 1 {
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
	for _, x := range m.marked {
		m.mark[x] = false
	}
	m.marked = m.marked[:0]
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
		return m.M() > 0 || x != 0
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
	_, applied, _ := ApplyRun(nil, ops, m.AddEdge, m.RemoveEdge)
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
	return ApplyRun(run, ops, m.AddEdge, m.RemoveEdge)
}

// ApplyRun is the batch loop every edge-update consumer shares: it
// applies ops in order through add and remove (each reporting whether
// the graph changed), polling run between ops, and returns the
// processed prefix length, how many of those ops changed the graph,
// and the cause when run stopped the batch early. A nil run never
// stops. Each op is atomic, so the caller's state is exactly
// ops[:processed] applied.
func ApplyRun(run *runctl.Run, ops []Op, add, remove func(u, v int32) bool) (processed, applied int, err error) {
	cp := run.Checkpoint(1) // each op is already a multi-hop recompute
	for _, op := range ops {
		if cp.Tick() {
			return processed, applied, run.Err()
		}
		if op.Add {
			if add(op.U, op.V) {
				applied++
			}
		} else if remove(op.U, op.V) {
			applied++
		}
		processed++
	}
	return processed, applied, nil
}

// Dominators returns, for diagnostic purposes, one dominator per vertex
// (computed on demand) in core.Result.Dominator's convention: out[x] ==
// x exactly when x is in the skyline. A dominated vertex with a
// neighbor gets its smallest-ID dominator. An isolated dominated vertex
// gets the smallest non-isolated vertex, or vertex 0 in an edgeless
// graph; that is a valid dominator but not always the smallest, since
// an isolated vertex 0 also dominates every isolated vertex above it.
func (m *Maintainer) Dominators() []int32 {
	first := int32(0)
	for w := int32(0); w < int32(m.N()); w++ {
		if m.Degree(w) > 0 {
			first = w
			break
		}
	}
	out := make([]int32, m.N())
	for x, d := range m.dominated {
		switch x := int32(x); {
		case !d:
			out[x] = x
		case m.Degree(x) == 0:
			out[x] = first
		default:
			out[x] = m.dominator(x)
		}
	}
	return out
}
