package dynsky

import (
	"slices"

	"neisky/internal/graph"
	"neisky/internal/paged"
)

// Rows is a mutable adjacency over an immutable CSR seed: a vertex gets
// a private sorted row only when an update touches it, and every other
// row is read from the seed in place. The slot index is a paged array
// whose pages are allocated on first write, so nothing is allocated per
// vertex: a new Rows costs its page table, and each touched page 4 KiB.
// The vertex count is fixed at construction.
//
// Rows reads the storage of the graph it was seeded with (which may be
// an mmap) until Graph returns; callers must keep that graph alive
// until then.
type Rows struct {
	base *graph.Graph // rows of vertices without a private row
	// slot(u) > 0 means u's current row is rows[slot(u)-1]; 0 means
	// base.Neighbors(u). touched lists the vertices with a private row.
	slot    paged.Array[int32]
	rows    [][]int32
	touched []int32
	edges   int
}

// NewRows seeds an overlay on g.
func NewRows(g *graph.Graph) *Rows {
	return &Rows{base: g, slot: paged.New[int32](g.N()), edges: g.M()}
}

// N returns the vertex count.
func (r *Rows) N() int { return r.slot.Len() }

// M returns the current edge count.
func (r *Rows) M() int { return r.edges }

// Neighbors returns the current sorted adjacency row of u. The slice is
// shared with the overlay and valid only until the next update or
// Graph call; callers must not modify it.
func (r *Rows) Neighbors(u int32) []int32 {
	if s := r.slot.Get(u); s > 0 {
		return r.rows[s-1]
	}
	return r.base.Neighbors(u)
}

// Degree returns the current degree of u.
func (r *Rows) Degree(u int32) int { return len(r.Neighbors(u)) }

// Has reports whether the edge (u, v) currently exists.
func (r *Rows) Has(u, v int32) bool {
	_, ok := slices.BinarySearch(r.Neighbors(u), v)
	return ok
}

// AddEdge inserts the undirected edge (u, v) and reports whether it was
// new. Self-loops are rejected.
func (r *Rows) AddEdge(u, v int32) bool {
	if u == v || r.Has(u, v) {
		return false
	}
	r.patch(u, v, true)
	r.patch(v, u, true)
	r.edges++
	return true
}

// RemoveEdge deletes the undirected edge (u, v) and reports whether it
// existed.
func (r *Rows) RemoveEdge(u, v int32) bool {
	if u == v || !r.Has(u, v) {
		return false
	}
	r.patch(u, v, false)
	r.patch(v, u, false)
	r.edges--
	return true
}

// Graph snapshots the current adjacency as an immutable CSR graph
// (graph.Patch): the blocks holding a private row are rebuilt, and the
// result shares every other block with the current graph. The overlay
// then rebases onto the result, so it no longer reads the graph it was
// seeded with (a mapped seed is copied whole by its first patch). The
// result is never that seed graph, even when no update changed it.
func (r *Rows) Graph() *graph.Graph {
	slices.Sort(r.touched)
	rows := make([][]int32, len(r.touched))
	for i, u := range r.touched {
		rows[i] = r.rows[r.slot.Get(u)-1]
		r.slot.Set(u, 0)
	}
	r.base = r.base.Patch(r.touched, rows, r.edges)
	clear(r.rows)
	r.rows = r.rows[:0]
	r.touched = r.touched[:0]
	return r.base
}

// patch inserts (add) or removes v in u's row, giving u a private copy
// of its base row on first touch. v must be absent (add) or present.
func (r *Rows) patch(u, v int32, add bool) {
	s := r.slot.Get(u)
	if s == 0 {
		b := r.base.Neighbors(u)
		r.rows = append(r.rows, append(make([]int32, 0, len(b)+1), b...))
		r.touched = append(r.touched, u)
		s = int32(len(r.rows))
		r.slot.Set(u, s)
	}
	row := &r.rows[s-1]
	i, _ := slices.BinarySearch(*row, v)
	if add {
		*row = slices.Insert(*row, i, v)
	} else {
		*row = slices.Delete(*row, i, i+1)
	}
}
