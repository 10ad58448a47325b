package skytree

import (
	"context"
	"fmt"
	"slices"

	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/paged"
	"neisky/internal/runctl"
)

// Maintainer keeps a layered dominance index exact under edge
// insertions and deletions. It holds the mutable adjacency as a
// dynsky.Rows overlay on the seed CSR and the layer and parent arrays
// on top of it; layer 0 is the skyline (KeepIsolated), so no separate
// level-0 maintainer runs beside it (Tree.SkylineSize derives |R|).
//
// Locality. Definition 2 reads only N_S(x) and N_S(w), so an op on
// edge (u, v) can flip a vertex's level-j status only through a pair
// that involves a hot vertex, one whose level-j row differs between the
// old state (G, S_j) and the new one (G', S'_j): u and v while the op
// edge is live, that is, lies in exactly one of G[S_j] and G'[S'_j];
// every vertex whose membership differs between S_j and S'_j; and
// those vertices' neighbors. Per op the levels settle in increasing
// order, because S'_j depends only on the decisions below j. At each
// level one kernel scan in S'_j re-decides the hot vertices and their
// witness candidates: N(v) for u and N(u) for v while the edge is live,
// N[q] for one neighbor q that a hot vertex has in both states, and the
// 2-hop ball of each vertex that joined or left S_j. Every other vertex
// keeps its level-j status. The cascade stops at the first level with
// no hot vertex, from which on the two states' induced subgraphs are
// equal. Every re-decided vertex then gets its parent witness again,
// which reaches every parent the op can move: a vertex whose layer
// moved joins or leaves S_j at every level between its old and new
// layers, so the 2-hop visits re-decide its dominatees there. DESIGN.md
// §11 has the completeness argument; the result equals a from-scratch
// rebuild, the oracle property the test battery checks after every op
// of random update streams.
//
// An op costs its hot vertices' scans, independent of n; one that moves
// a hub's layer re-decides the hub's 2-hop ball at each level it spans.
//
// Memory. The layer and parent arrays are forks of the seed tree's
// paged arrays, so the maintainer copies only the pages its ops write,
// and Tree publishes them as forks again; the per-op flags live in a
// map of the vertices on the op's lists. Seeding, a batch and
// publishing therefore cost page tables and touched pages, not n.
type Maintainer struct {
	rows   *dynsky.Rows
	layer  paged.Array[int32]
	parent paged.Array[int32]
	counts []int // per-layer vertex counts (NumLayers)

	// Per-op scratch. flag holds the bits of the vertices on a list,
	// and each bit is cleared through the list that set it, so flag is
	// empty between ops. A map, not a per-vertex array: an op marks a
	// few hundred vertices spread over the whole ID range (hubs'
	// neighbors), and an array would cost a page per vertex marked.
	flag   map[int32]uint8
	moved  []move  // vertices whose layer left its pre-op value
	diff   []int32 // D_j: membership differs between S_j and S'_j
	hot    []int32 // vertices whose N[q] was visited at this level
	check  []int32 // this level's re-decisions
	redone []int32 // vertices whose parent is recomputed
}

// move records a vertex whose layer changed during an op, with its
// layer before the op.
type move struct{ v, old int32 }

// Bits of Maintainer.flag, each set exactly when the vertex is on the
// list named beside it.
const (
	inMoved  uint8 = 1 << iota // moved
	inDiff                     // diff
	inHot                      // hot
	inCheck                    // check
	inRedone                   // redone
)

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
// The maintainer shares t's pages and copies one only when an op writes
// it, so seeding costs page tables, not n entries.
func NewMaintainerFromTree(g *graph.Graph, t *Tree) *Maintainer {
	if t.Truncated {
		panic("skytree: NewMaintainerFromTree needs a complete tree")
	}
	if t.N() != g.N() {
		panic(fmt.Sprintf("skytree: tree has %d vertices, graph %d", t.N(), g.N()))
	}
	return &Maintainer{
		rows:   dynsky.NewRows(g),
		layer:  t.layer.Fork(),
		parent: t.parent.Fork(),
		counts: slices.Clone(t.counts),
		flag:   map[int32]uint8{},
	}
}

// N returns the vertex count.
func (m *Maintainer) N() int { return m.rows.N() }

// M returns the current edge count.
func (m *Maintainer) M() int { return m.rows.M() }

// Layer returns v's current dominance layer.
func (m *Maintainer) Layer(v int32) int32 { return m.layer.Get(v) }

// Parent returns v's current parent witness (-1 for layer 0).
func (m *Maintainer) Parent(v int32) int32 { return m.parent.Get(v) }

// NumLayers returns the current number of layers.
func (m *Maintainer) NumLayers() int { return len(m.counts) }

// Tree snapshots the current index as an immutable Tree that shares
// the maintainer's pages; later updates copy a page before they write
// it, so the tree never changes. Its layer counts come along, and its
// layer lists are built on first use.
func (m *Maintainer) Tree() *Tree {
	return &Tree{layer: m.layer.Fork(), parent: m.parent.Fork(), counts: slices.Clone(m.counts)}
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
	m.update(u, v, true)
	return true
}

// RemoveEdge deletes the undirected edge (u, v) and re-layers the
// affected region. Reports whether the edge existed.
func (m *Maintainer) RemoveEdge(u, v int32) bool {
	if !m.rows.RemoveEdge(u, v) {
		return false
	}
	m.update(u, v, false)
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

// update settles the layers and parents after the op on edge (u, v)
// has reached the rows (see Maintainer). The layer array holds the new
// state below the current level j, and at level j and deeper it holds
// the old layers, except that a vertex found dominated at its old layer
// is unassigned (-1) until a deeper level places it. So core.Level reads
// S'_j, and the moved list gives S_j.
func (m *Maintainer) update(u, v int32, add bool) {
	r := obs.Get()
	defer r.Start("skytree.update").End()

	ou, ov := m.layer.Get(u), m.layer.Get(v)
	var decisions int64
	for j := int32(0); ; j++ {
		if int(j) > m.N() {
			panic("skytree: level cascade failed to settle (invariant violation)")
		}
		kn := core.Kernel{G: m.rows, S: core.Level(&m.layer, j)}
		for _, mv := range m.moved {
			if (mv.old >= j) != kn.S.Contains(mv.v) {
				m.flag[mv.v] |= inDiff
				m.diff = append(m.diff, mv.v)
			}
		}
		// The op edge is live at level j when both endpoints are in the
		// level set of the graph that has the edge.
		live := ou >= j && ov >= j
		if add {
			live = kn.S.Contains(u) && kn.S.Contains(v)
		}
		if len(m.diff) == 0 && !live {
			break
		}
		if live {
			for _, e := range [2][2]int32{{u, v}, {v, u}} {
				m.mark(e[0])
				m.tie(e[0], e[1], &kn.S)
				for _, x := range m.rows.Neighbors(e[1]) {
					m.mark(x)
				}
			}
		}
		for _, y := range m.diff {
			m.mark(y)
			for _, w := range m.rows.Neighbors(y) {
				m.mark(w)
				if m.flag[w]&inDiff == 0 && kn.S.Contains(w) {
					m.tie(w, partner(w, u, v), &kn.S)
				}
				for _, x := range m.rows.Neighbors(w) {
					m.mark(x)
				}
			}
		}

		// Moving between j, -1 and deeper layers keeps a vertex in S'_j,
		// so the scope stays fixed while the level settles.
		for _, x := range m.check {
			m.clearFlag(x, inCheck)
			if !kn.S.Contains(x) {
				continue
			}
			decisions++
			if m.flag[x]&inRedone == 0 {
				m.flag[x] |= inRedone
				m.redone = append(m.redone, x)
			}
			l := m.layer.Get(x)
			if kn.FirstDominator(x) < 0 {
				if l != j {
					m.setLayer(x, j)
				}
			} else if l == j {
				m.setLayer(x, -1)
			}
		}
		m.check = m.check[:0]
		for _, y := range m.diff {
			m.clearFlag(y, inDiff)
		}
		m.diff = m.diff[:0]
		for _, w := range m.hot {
			m.clearFlag(w, inHot)
		}
		m.hot = m.hot[:0]
	}
	r.Add("skytree.update.dirty", decisions)
	for _, mv := range m.moved {
		m.clearFlag(mv.v, inMoved)
	}
	m.moved = m.moved[:0]

	// Parents: every re-decided vertex gets its witness again. That
	// covers each vertex whose dominators at its parent level changed,
	// or whose dominator there entered or left that layer (see
	// DESIGN.md §11), so every other parent is unchanged.
	// Only a changed parent is written, so an unchanged one shares its
	// page with the tree the maintainer was seeded from.
	for _, x := range m.redone {
		if p := parentOf(m.rows, &m.layer, x); p != m.parent.Get(x) {
			m.parent.Set(x, p)
		}
		m.clearFlag(x, inRedone)
	}
	m.redone = m.redone[:0]
}

// clearFlag clears bit b of x's flag.
func (m *Maintainer) clearFlag(x int32, b uint8) {
	if f := m.flag[x] &^ b; f != 0 {
		m.flag[x] = f
	} else {
		delete(m.flag, x)
	}
}

// partner returns w's other endpoint on the op edge (u, v), or -1.
func partner(w, u, v int32) int32 {
	switch w {
	case u:
		return v
	case v:
		return u
	}
	return -1
}

// tie marks N[q] for the hot vertex w, once per level, where q is w's
// minimum-degree neighbor present in both S_j and S'_j (s is S'_j) over
// an edge other than the op edge (whose other endpoint is p). A w that
// dominates x by a mutual-inclusion tie in one state has q in N_S[x]
// there, so that x is in N[q].
func (m *Maintainer) tie(w, p int32, s *core.Scope) {
	if m.flag[w]&inHot != 0 {
		return
	}
	m.flag[w] |= inHot
	m.hot = append(m.hot, w)
	q, qd := int32(-1), 0
	for _, y := range m.rows.Neighbors(w) {
		if y == p || m.flag[y]&inDiff != 0 || !s.Contains(y) {
			continue
		}
		if d := m.rows.Degree(y); q < 0 || d < qd {
			q, qd = y, d
		}
	}
	if q < 0 {
		return
	}
	m.mark(q)
	for _, x := range m.rows.Neighbors(q) {
		m.mark(x)
	}
}

// mark adds x to this level's re-decisions.
func (m *Maintainer) mark(x int32) {
	if m.flag[x]&inCheck == 0 {
		m.flag[x] |= inCheck
		m.check = append(m.check, x)
	}
}

// setLayer moves v to layer l (or to the unassigned state, l == -1),
// recording v's pre-op layer on its first move and maintaining the
// histogram.
func (m *Maintainer) setLayer(v, l int32) {
	old := m.layer.Get(v)
	if m.flag[v]&inMoved == 0 {
		m.flag[v] |= inMoved
		m.moved = append(m.moved, move{v, old})
	}
	if old >= 0 {
		m.counts[old]--
	}
	m.layer.Set(v, l)
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
