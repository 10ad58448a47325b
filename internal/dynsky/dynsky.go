// Package dynsky maintains a neighborhood skyline under edge insertions
// and deletions — the dynamic-graph extension of the paper's static
// problem.
//
// The maintainer keeps the paper's O array (Algorithm 3's output) in
// canonical form: O[x] is x's smallest-ID dominator, or x itself when
// x is in the skyline. An isolated x > 0 has O[x] = 0, and an isolated
// vertex 0 has the smallest non-isolated vertex, or itself in an
// edgeless graph — the array core.BruteForce returns. It depends only
// on the graph, not on the op history that produced it.
//
// Definition 2 reads only N(x) and N(w), and an op on edge (u, v)
// changes only N(u) and N(v), so another vertex x can only gain or lose
// u or v as a dominator, in a fixed direction: an insertion never
// removes one and a deletion never adds one. u can gain or lose x only
// if x ∈ N(v), or if N[x] contains u's neighbors other than v, which
// puts x in N[p_u] for a neighbor p_u of u (taken before an insertion,
// after a deletion); the same holds for v with the roles swapped. Per
// op the maintainer therefore re-decides u and v with a full pivot
// scan and runs one pair test per visited x: an insertion lowers O[x]
// when the endpoint dominates x with a smaller ID, and a deletion
// rescans x only when O[x] was the endpoint and that pair broke. The
// pivots, pair tests and scans are core.Kernel's on the whole graph.
// Isolated vertices follow the closed form; vertex 0's entry moves
// only when an endpoint's isolation does. The obs counters
// dynsky.update.pairs and dynsky.update.rescans count the pair tests
// and full scans.
//
// The same locality fixes the representation. Rows keeps the immutable
// CSR it was seeded with and gives a vertex a private sorted row only
// when an update touches it; its Graph patches the private rows into a
// new CSR that shares every untouched block with the current one. Rows
// is the one representation of mutable graph state: the Maintainer
// here is Rows plus the O array, internal/skytree's maintainer is Rows
// plus layers, WAL recovery uses Rows alone, and all three apply
// batches through ApplyRun. The O array is a copy-on-write paged array
// (internal/paged) published with its skyline size as a Dominators
// value. New seeds a Maintainer with one sharded skyline run over the
// CSR plus Canonical's smallest-ID scan of the dominated vertices;
// Seeded continues from a predecessor's Dominators instead and shares
// its pages, so a carried maintainer copies only the pages its ops
// write, not n entries. A batch costs O(degree) per patched row plus
// each op's scans and pair tests, and seeding, a batch and publishing
// allocate page tables and touched pages, never per vertex.
package dynsky

import (
	"context"
	"fmt"

	"neisky/internal/core"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/paged"
	"neisky/internal/runctl"
)

// Dominators is one graph's canonical O array with its skyline size
// |R|: the value a Maintainer publishes (Maintainer.Dominators), Seeded
// continues from, and Canonical builds. It is immutable and safe for
// concurrent use; the epochs of one lineage share its unchanged pages.
// The zero value holds no graph.
type Dominators struct {
	o    paged.Array[int32]
	size int
}

// N returns the vertex count (0 for the zero value).
func (d *Dominators) N() int { return d.o.Len() }

// Of returns x's entry: x itself when x is in the skyline, and
// otherwise x's smallest-ID dominator.
func (d *Dominators) Of(x int32) int32 { return d.o.Get(x) }

// SkylineSize returns |R|.
func (d *Dominators) SkylineSize() int { return d.size }

// Skyline materializes the skyline in increasing ID order: O(n).
func (d *Dominators) Skyline() []int32 { return skyline(&d.o, d.size) }

// skyline lists the x with o(x) == x; size is their number.
func skyline(o *paged.Array[int32], size int) []int32 {
	out := make([]int32, 0, size)
	for p, pg := range o.Pages() {
		for i, w := range pg {
			if v := int32(p<<paged.PageBits + i); v < int32(o.Len()) && w == v {
				out = append(out, v)
			}
		}
	}
	return out
}

// Slice returns a flat copy of the array, in core.Result.Dominator's
// convention.
func (d *Dominators) Slice() []int32 { return d.o.Slice() }

// Canonical turns dom, an O array of g in core.Result.Dominator's
// convention, into g's canonical one: dom[x] == x must hold exactly for
// the skyline's non-isolated vertices, and every other entry is a
// dominator of x or negative (not known). Isolated vertices get the
// closed form and every other dominated vertex one whole-graph
// SmallestDominator scan; dom is rewritten in place and then copied
// into pages. When dom marks a superset of the skyline (a truncated
// engine run), the result marks the same superset. A stop of ctx's run
// between scans returns the cause: the entries not yet rewritten keep
// their dominators, and a negative one becomes x (not yet proven
// dominated), so the array still names only valid dominators and its
// skyline is a sound superset.
func Canonical(ctx context.Context, g *graph.Graph, dom []int32) (Dominators, error) {
	if len(dom) != g.N() {
		panic(fmt.Sprintf("dynsky: O array of %d vertices for a graph of %d", len(dom), g.N()))
	}
	run := runctl.FromContext(ctx)
	defer run.Release()
	cp := run.Checkpoint(64)
	kn := core.Kernel{G: g}
	var err error
	size := 0
	for x := range dom {
		x := int32(x)
		isolated := g.Degree(x) == 0
		if err == nil && (isolated || dom[x] != x) {
			if !isolated && cp.Tick() {
				err = run.Err()
			} else {
				dom[x] = decide(&kn, g.N(), x)
			}
		}
		if dom[x] < 0 { // not reached before the run stopped
			dom[x] = x
		}
		if dom[x] == x {
			size++
		}
	}
	return Dominators{o: paged.From(dom), size: size}, err
}

// Maintainer holds a mutable graph and its canonical O array. The
// vertex count is fixed at construction.
//
// The maintainer reads the storage of the graph it was seeded with
// (which may be an mmap) until Graph returns; callers must keep that
// graph alive until then.
type Maintainer struct {
	rows    *Rows
	kn      core.Kernel        // dominance on the whole graph of rows
	dom     paged.Array[int32] // the canonical O array; dom(x) == x iff x ∈ R
	skySize int
}

// New builds a Maintainer seeded from g: one sharded skyline run
// decides which vertices are dominated, and Canonical's smallest-ID
// pivot scan of each dominated vertex makes the O array canonical. A
// caller that holds g's canonical array already seeds with Seeded
// instead.
func New(g *graph.Graph) *Maintainer {
	res := core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{})
	if res.Truncated {
		// No context reaches the run, so only a worker panic stops it.
		panic(fmt.Sprintf("dynsky: seeding skyline run stopped early: %v", res.Err))
	}
	// The engine's array is fresh and holds some dominator of each
	// dominated vertex; Canonical replaces those with the smallest.
	d, _ := Canonical(context.Background(), g, res.Dominator)
	return Seeded(g, d)
}

// Seeded builds a Maintainer over g that continues from d, g's
// canonical O array (as Dominators or Canonical returns it). The
// maintainer shares d's pages and copies one only when an op writes
// it, and it takes |R| from d: the cost is a page table, not n entries
// or a skyline run. A wrong array is not detected, and every later
// answer inherits it.
func Seeded(g *graph.Graph, d Dominators) *Maintainer {
	if d.N() != g.N() {
		panic(fmt.Sprintf("dynsky: O array of %d vertices for a graph of %d", d.N(), g.N()))
	}
	rows := NewRows(g)
	return &Maintainer{rows: rows, kn: core.Kernel{G: rows}, dom: d.o.Fork(), skySize: d.size}
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
func (m *Maintainer) InSkyline(v int32) bool { return m.dom.Get(v) == v }

// SkylineSize returns |R| without materializing the set.
func (m *Maintainer) SkylineSize() int { return m.skySize }

// Dominators publishes the current canonical O array with |R|: for
// every x, Of(x) == x exactly when x is in the skyline, and otherwise
// Of(x) is x's smallest-ID dominator, for isolated vertices too — the
// array core.BruteForce returns for the graph Graph returns, and the
// input Seeded takes. The value shares the maintainer's pages, and
// later updates copy a page before they write it, so the value never
// changes.
func (m *Maintainer) Dominators() Dominators {
	return Dominators{o: m.dom.Fork(), size: m.skySize}
}

// Skyline materializes the current skyline in increasing ID order.
func (m *Maintainer) Skyline() []int32 { return skyline(&m.dom, m.skySize) }

// Graph snapshots the current adjacency as an immutable CSR graph (see
// Rows.Graph); the maintainer then no longer reads the graph it was
// seeded with. The result is never that seed graph.
func (m *Maintainer) Graph() *graph.Graph { return m.rows.Graph() }

// AddEdge inserts the undirected edge (u, v) and updates the O array.
// It reports whether the edge was new. Self-loops are rejected.
func (m *Maintainer) AddEdge(u, v int32) bool {
	pu, pv := m.kn.Pivot(u), m.kn.Pivot(v) // before the op, as settle needs
	if !m.rows.AddEdge(u, v) {
		return false
	}
	m.settle(u, v, pu, pv, true)
	return true
}

// RemoveEdge deletes the undirected edge (u, v) and updates the O
// array. It reports whether the edge existed.
func (m *Maintainer) RemoveEdge(u, v int32) bool {
	if !m.rows.RemoveEdge(u, v) {
		return false
	}
	m.settle(u, v, m.kn.Pivot(u), m.kn.Pivot(v), false)
	return true
}

// settle brings the O array up to date after the op on edge (u, v) has
// reached the rows. pu and pv are the endpoints' pivots (-1 for none),
// taken before an insertion and after a deletion, so that N[pu] holds
// every x whose closed neighborhood contains u's neighbors other than
// v (see the package comment).
func (m *Maintainer) settle(u, v, pu, pv int32, add bool) {
	var pairs, rescans int64
	rescan := func(x int32) {
		if m.Degree(x) > 0 {
			rescans++
		}
		m.set(x, m.decide(x))
	}
	rescan(u)
	rescan(v)
	// visit runs the pair test of endpoint w against x, when its
	// outcome can move O[x].
	visit := func(w, x int32) {
		if x == u || x == v {
			return
		}
		switch o := m.dom.Get(x); {
		case add && (o == x || w < o):
			pairs++
			if m.kn.Dominates(w, x) {
				m.set(x, w)
			}
		case !add && o == w:
			pairs++
			if !m.kn.Dominates(w, x) {
				rescan(x)
			}
		}
	}
	for _, e := range [2]struct{ w, far, p int32 }{{u, v, pu}, {v, u, pv}} {
		for _, x := range m.Neighbors(e.far) {
			visit(e.w, x)
		}
		if e.p >= 0 {
			visit(e.w, e.p)
			for _, x := range m.Neighbors(e.p) {
				visit(e.w, x)
			}
		}
	}
	// An isolated vertex 0 is dominated by exactly the non-isolated
	// vertices, so its entry moves only when an endpoint's isolation
	// flipped: degree 1 after an insertion, 0 after a deletion.
	flip := 0
	if add {
		flip = 1
	}
	if u != 0 && v != 0 && m.Degree(0) == 0 && (m.Degree(u) == flip || m.Degree(v) == flip) {
		m.set(0, m.decide(0))
	}
	r := obs.Get()
	r.Add("dynsky.update.pairs", pairs)
	r.Add("dynsky.update.rescans", rescans)
}

// set records w as x's O entry and keeps the skyline size in step.
func (m *Maintainer) set(x, w int32) {
	old := m.dom.Get(x)
	if old == w {
		return
	}
	switch {
	case old == x:
		m.skySize--
	case w == x:
		m.skySize++
	}
	m.dom.Set(x, w)
}

// decide evaluates x's canonical O entry from scratch on the current
// adjacency.
func (m *Maintainer) decide(x int32) int32 { return decide(&m.kn, m.N(), x) }

// decide evaluates x's canonical O entry on kn's whole graph of n
// vertices.
func decide(kn *core.Kernel, n int, x int32) int32 {
	if kn.G.Degree(x) > 0 {
		if w := kn.SmallestDominator(x); w >= 0 {
			return w
		}
		return x
	}
	// Every non-isolated vertex and every smaller isolated vertex
	// dominates an isolated x, so vertex 0 is the smallest for x > 0.
	// Vertex 0 itself gets the smallest non-isolated vertex, if any.
	if x > 0 {
		return 0
	}
	for w := int32(1); w < int32(n); w++ {
		if kn.G.Degree(w) > 0 {
			return w
		}
	}
	return 0
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
