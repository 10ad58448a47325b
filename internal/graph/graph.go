// Package graph implements the compact undirected graph representation
// shared by every algorithm in this repository.
//
// Graphs are stored in a blocked CSR (compressed sparse row) form. The
// vertices are split into fixed blocks of blockSize = 512, and each
// block holds a pointer to its 513 offsets and an adjacency slice:
// vertex u's row is the block's adjacency between offsets u&511 and
// (u&511)+1. A built or loaded graph's blocks all index its one
// offsets array and its one adjacency array of length 2m, so it is one
// flat CSR read through a small block table. Patch gives each epoch of
// a changing graph a new block table that shares every block without a
// touched vertex, so a batch swap copies the blocks it touches, not the
// graph. Adjacency lists are sorted by vertex ID, which the skyline
// algorithms exploit for early-exit subset tests and which makes
// Has(u,v) a binary search.
//
// Vertices are dense integers 0..n-1. The builder deduplicates parallel
// edges and drops self-loops, so every Graph is a simple graph.
package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"neisky/internal/paged"
	"neisky/internal/sketch"
)

// Blocks of the CSR: vertex u lives in block u>>blockBits at local
// index u&blockMask. A row read costs one block-table load beside the
// flat layout's two offset loads; DESIGN.md §9 has the measured cost
// and why 512 (a patch rebuilds a touched block, and the table grows
// as n/512).
const (
	blockBits = 9
	blockSize = 1 << blockBits
	blockMask = blockSize - 1
)

// block holds the rows of the vertices k·blockSize+i, i < blockSize:
// row i is adj[off[i]:off[i+1]]. Entries past the graph's last vertex
// repeat the block's end offset, so they read as empty rows. Blocks are
// immutable and shared between the graphs Patch derives.
type block struct {
	off *[blockSize + 1]int32
	adj []int32
}

// Graph is an immutable undirected simple graph in blocked CSR form.
type Graph struct {
	n      int
	blocks []block
	// base[k] is the number of adjacency entries before block k (the
	// flat CSR's offsets[k·blockSize]), and base[len(blocks)] = 2m.
	base []int32
	m    int // number of undirected edges
	// borrowed marks rows that alias storage the graph does not own (an
	// mmap); Patch copies such a graph whole instead of sharing blocks.
	borrowed bool

	// The degree summaries, memoized at build time and patched by
	// Patch. hist(d) counts the vertices of degree d; its pages past
	// the occupied degrees are nil, so a patch copies the page table
	// and the pages of the degrees it moves, not the histogram.
	maxDeg int
	hist   paged.Array[int32]

	hub     atomic.Pointer[HubIndex] // lazily built hub-bitmap index
	hubOnce sync.Once

	sk          atomic.Pointer[sketch.Sketches] // lazily built neighborhood sketches
	skOnce      sync.Once
	degSorted   bool // lazily computed: degrees non-increasing in vertex ID
	degSortOnce sync.Once
}

// fromCSR builds a graph over the flat CSR arrays offsets (length n+1)
// and adj (length 2m), which it reads in place (see blocked), and
// computes its degree summaries.
func fromCSR(offsets, adj []int32, m int) *Graph { return blocked(offsets, adj, m).finish() }

// blocked returns the block table over flat CSR arrays: every full
// block's offsets are a window of offsets, and only a partial last
// block gets its own copy. The caller fills the degree summaries.
func blocked(offsets, adj []int32, m int) *Graph {
	n := len(offsets) - 1
	nb := (n + blockMask) >> blockBits
	g := &Graph{n: n, blocks: make([]block, nb), base: make([]int32, nb+1), m: m}
	for k := range g.blocks {
		lo := k << blockBits
		var off *[blockSize + 1]int32
		if lo+blockSize+1 <= len(offsets) {
			off = (*[blockSize + 1]int32)(offsets[lo : lo+blockSize+1])
		} else {
			off = new([blockSize + 1]int32)
			for i := copy(off[:], offsets[lo:]); i <= blockSize; i++ {
				off[i] = offsets[n]
			}
		}
		g.blocks[k] = block{off: off, adj: adj}
		g.base[k] = offsets[lo]
	}
	g.base[nb] = offsets[n]
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int32) int {
	off := g.blocks[u>>blockBits].off
	i := u & blockMask
	return int(off[i+1] - off[i])
}

// Neighbors returns the sorted adjacency list of u. The returned slice
// aliases the graph's storage, which later epochs may share, and must
// not be modified.
func (g *Graph) Neighbors(u int32) []int32 {
	b := &g.blocks[u>>blockBits]
	i := u & blockMask
	return b.adj[b.off[i]:b.off[i+1]]
}

// offset returns the flat CSR offset of v (0 ≤ v ≤ n): the number of
// adjacency entries of the vertices before v.
func (g *Graph) offset(v int32) int32 {
	k := v >> blockBits
	if int(k) == len(g.blocks) {
		return g.base[k]
	}
	off := g.blocks[k].off
	return g.base[k] + off[v&blockMask] - off[0]
}

// linearScanMax is the adjacency length below which Has scans linearly:
// for short sorted runs a branch-predictable linear walk beats the
// branchy bisection, and most vertices of a power-law graph fall here.
const linearScanMax = 8

// Has reports whether the edge (u, v) exists. Adjacency-length-aware:
// linear scan for short lists, galloping (exponential probe + bisection
// of the final run) for long ones, so the common "low-degree u against
// huge-degree w" refine-phase probe costs O(log position) rather than
// O(log deg).
func (g *Graph) Has(u, v int32) bool {
	nbrs := g.Neighbors(u)
	if len(nbrs) <= linearScanMax {
		for _, x := range nbrs {
			if x >= v {
				return x == v
			}
		}
		return false
	}
	return searchSorted(nbrs, v)
}

// searchSorted reports whether v occurs in the sorted slice via
// galloping search.
func searchSorted(nbrs []int32, v int32) bool {
	// Gallop: find the first probe position with nbrs[p] >= v.
	hi := 1
	for hi < len(nbrs) && nbrs[hi] < v {
		hi <<= 1
	}
	lo := hi >> 1
	if hi > len(nbrs) {
		hi = len(nbrs)
	}
	// Bisect the bracketed run [lo, hi).
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nbrs[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(nbrs) && nbrs[lo] == v
}

// finish computes the memoized degree summaries. Every constructor of a
// Graph must call it exactly once before publishing the value.
func (g *Graph) finish() *Graph {
	hist := paged.New[int32](max(g.N(), 1))
	for u := int32(0); u < int32(g.N()); u++ {
		d := g.Degree(u)
		hist.Set(int32(d), hist.Get(int32(d))+1)
		g.maxDeg = max(g.maxDeg, d)
	}
	g.hist = hist.Fork() // owns no page, so patched graphs may share them
	return g
}

// MaxDegree returns the maximum degree over all vertices (0 for an empty
// graph). Memoized at CSR build time; O(1).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// DegreeHist returns the degree histogram: hist[d] counts the vertices
// of degree d, for d ≤ MaxDegree. It is a fresh copy, O(MaxDegree).
func (g *Graph) DegreeHist() []int {
	out := make([]int, g.maxDeg+1)
	for d := range out {
		out[d] = int(g.hist.Get(int32(d)))
	}
	return out
}

// Isolated returns the number of vertices of degree 0; O(1).
func (g *Graph) Isolated() int { return int(g.hist.Get(0)) }

// Edges calls fn once for every undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int32)) {
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// EdgeList materializes all undirected edges with u < v.
func (g *Graph) EdgeList() [][2]int32 {
	edges := make([][2]int32, 0, g.m)
	g.Edges(func(u, v int32) { edges = append(edges, [2]int32{u, v}) })
	return edges
}

// Stats summarizes a graph the way the paper's Table I does.
type Stats struct {
	N, M, MaxDegree int
	AvgDegree       float64
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{N: g.N(), M: g.M(), MaxDegree: g.MaxDegree()}
	if s.N > 0 {
		s.AvgDegree = 2 * float64(s.M) / float64(s.N)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("n=%d m=%d dmax=%d davg=%.2f", s.N, s.M, s.MaxDegree, s.AvgDegree)
}

// Builder accumulates edges and produces a Graph. The zero value is ready
// to use after SetN, or edges may grow the vertex count implicitly via
// AddEdge.
type Builder struct {
	n     int32
	edges [][2]int32
}

// NewBuilder returns a builder for a graph with at least n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: int32(n)}
}

// SetN raises the vertex count to at least n.
func (b *Builder) SetN(n int) {
	if int32(n) > b.n {
		b.n = int32(n)
	}
}

// AddEdge records the undirected edge (u, v). Self-loops are ignored.
// Vertices beyond the current count grow the graph.
func (b *Builder) AddEdge(u, v int32) {
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	if v+1 > b.n {
		b.n = v + 1
	}
	b.edges = append(b.edges, [2]int32{u, v})
}

// Build produces the immutable CSR graph, deduplicating parallel edges.
func (b *Builder) Build() *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i][0] != b.edges[j][0] {
			return b.edges[i][0] < b.edges[j][0]
		}
		return b.edges[i][1] < b.edges[j][1]
	})
	// Deduplicate in place.
	uniq := b.edges[:0]
	var prev [2]int32 = [2]int32{-1, -1}
	for _, e := range b.edges {
		if e != prev {
			uniq = append(uniq, e)
			prev = e
		}
	}
	n := int(b.n)
	deg := make([]int32, n+1)
	for _, e := range uniq {
		deg[e[0]+1]++
		deg[e[1]+1]++
	}
	offsets := make([]int32, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = offsets[i-1] + deg[i]
	}
	adj := make([]int32, offsets[n])
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, e := range uniq {
		adj[cursor[e[0]]] = e[1]
		cursor[e[0]]++
		adj[cursor[e[1]]] = e[0]
		cursor[e[1]]++
	}
	// Each vertex's window is already grouped; sort within windows.
	for u := 0; u < n; u++ {
		w := adj[offsets[u]:offsets[u+1]]
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
	}
	return fromCSR(offsets, adj, len(uniq))
}

// Patch returns a new graph on g's vertex set in which each vertex us[i]
// has the adjacency row rows[i] and every other vertex keeps its row
// from g; m is the new edge count. us must be ascending, every row
// sorted, and the result symmetric — the caller (an incremental
// maintainer that edited both endpoints of each changed edge) vouches
// for it. The result shares every block without a touched vertex with
// g and rebuilds only the touched blocks, and its degree summaries are
// g's, patched at the touched vertices: the cost is the block table
// plus the touched blocks, not n. A graph whose storage is borrowed (an
// mmap) is first copied whole, so no patched graph outlives the mapping.
// The result is never g.
func (g *Graph) Patch(us []int32, rows [][]int32, m int) *Graph {
	if g.borrowed {
		g = g.heapCopy()
	}
	h := &Graph{n: g.n, blocks: slices.Clone(g.blocks), base: make([]int32, len(g.blocks)+1), m: m,
		maxDeg: g.maxDeg, hist: g.hist.Fork()}
	for i := 0; i < len(us); {
		k := us[i] >> blockBits
		j := i + 1
		for j < len(us) && us[j]>>blockBits == k {
			j++
		}
		h.blocks[k] = g.patchBlock(k, us[i:j], rows[i:j])
		for x, u := range us[i:j] {
			old, d := int32(g.Degree(u)), int32(len(rows[i+x]))
			h.hist.Set(old, h.hist.Get(old)-1)
			h.hist.Set(d, h.hist.Get(d)+1)
			h.maxDeg = max(h.maxDeg, int(d))
		}
		i = j
	}
	for h.maxDeg > 0 && h.hist.Get(int32(h.maxDeg)) == 0 {
		h.maxDeg--
	}
	h.hist = h.hist.Fork()
	for k, b := range h.blocks {
		h.base[k+1] = h.base[k] + b.off[blockSize] - b.off[0]
	}
	return h
}

// patchBlock rebuilds block k with the rows of its vertices us
// (ascending) replaced by rows, bulk-copying the untouched ranges.
func (g *Graph) patchBlock(k int32, us []int32, rows [][]int32) block {
	old := g.blocks[k]
	size := int(old.off[blockSize] - old.off[0])
	for i, u := range us {
		size += len(rows[i]) - g.Degree(u)
	}
	off := new([blockSize + 1]int32)
	adj := make([]int32, 0, size)
	// copyRange appends the old rows of local vertices [a, b).
	copyRange := func(a, b int32) {
		shift := int32(len(adj)) - old.off[a]
		adj = append(adj, old.adj[old.off[a]:old.off[b]]...)
		for i := a; i < b; i++ {
			off[i+1] = old.off[i+1] + shift
		}
	}
	next := int32(0)
	for i, u := range us {
		x := u & blockMask
		copyRange(next, x)
		adj = append(adj, rows[i]...)
		off[x+1] = int32(len(adj))
		next = x + 1
	}
	copyRange(next, blockSize)
	return block{off: off, adj: adj}
}

// heapCopy copies a graph into one heap offsets and adjacency array,
// keeping its degree summaries.
func (g *Graph) heapCopy() *Graph {
	offsets := make([]int32, g.n+1)
	adj := make([]int32, 0, 2*g.m)
	for u := int32(0); u < int32(g.n); u++ {
		adj = append(adj, g.Neighbors(u)...)
		offsets[u+1] = int32(len(adj))
	}
	h := blocked(offsets, adj, g.m)
	h.maxDeg, h.hist = g.maxDeg, g.hist
	return h
}

// FromEdges builds a graph with n vertices from an explicit edge list.
func FromEdges(n int, edges [][2]int32) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	b.SetN(n)
	return b.Build()
}

// InducedSubgraph returns the subgraph induced by keep (vertex IDs of g)
// with vertices relabeled densely in the order given, plus the mapping
// from new IDs back to original IDs.
func (g *Graph) InducedSubgraph(keep []int32) (*Graph, []int32) {
	newID := make(map[int32]int32, len(keep))
	orig := make([]int32, len(keep))
	for i, v := range keep {
		newID[v] = int32(i)
		orig[i] = v
	}
	b := NewBuilder(len(keep))
	for i, v := range keep {
		for _, w := range g.Neighbors(v) {
			if j, ok := newID[w]; ok && int32(i) < j {
				b.AddEdge(int32(i), j)
			}
		}
	}
	return b.Build(), orig
}

// SampleVertices returns the induced subgraph on a uniformly random
// fraction frac of the vertices, using the supplied random stream
// (pass the output of rng.New). Used for the paper's "vary n" scalability
// experiments (Exp-7).
func (g *Graph) SampleVertices(frac float64, next func() float64) *Graph {
	keep := make([]int32, 0, int(float64(g.N())*frac)+1)
	for u := int32(0); u < int32(g.N()); u++ {
		if next() < frac {
			keep = append(keep, u)
		}
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}

// SampleEdges keeps each edge independently with probability frac,
// preserving the vertex set. Used for the paper's "vary density"
// scalability experiments (Exp-7).
func (g *Graph) SampleEdges(frac float64, next func() float64) *Graph {
	b := NewBuilder(g.N())
	g.Edges(func(u, v int32) {
		if next() < frac {
			b.AddEdge(u, v)
		}
	})
	return b.Build()
}

// WriteEdgeList writes the graph as "u v" lines preceded by a "# n m"
// header comment, the format ReadEdgeList accepts.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# neisky edge list: n=%d m=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v int32) {
		if werr == nil {
			_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ReadEdgeList parses whitespace-separated "u v" pairs, one edge per
// line. Lines starting with '#' or '%' (SNAP / KONECT conventions) are
// skipped. Vertex IDs may be arbitrary non-negative integers; they are
// compacted to a dense 0..n-1 range preserving numeric order.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var raw [][2]int64
	maxID := int64(-1)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected two vertex IDs, got %q", lineno, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineno, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineno, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex ID", lineno)
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		raw = append(raw, [2]int64{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxID >= 1<<31 {
		return nil, errors.New("graph: vertex IDs exceed int32 range")
	}
	// Compact IDs: collect, sort, rank.
	seen := make(map[int64]int32)
	ids := make([]int64, 0, 2*len(raw))
	for _, e := range raw {
		ids = append(ids, e[0], e[1])
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	n := int32(0)
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			seen[id] = n
			n++
		}
	}
	b := NewBuilder(int(n))
	for _, e := range raw {
		b.AddEdge(seen[e[0]], seen[e[1]])
	}
	return b.Build(), nil
}

// SubsetOpenInClosed reports whether N(u) ⊆ N[v], the paper's
// "u is neighborhood-included by v" (Definition 1). It merges the two
// sorted adjacency lists and exits on the first witness against
// inclusion. O(deg(u) + deg(v)).
func (g *Graph) SubsetOpenInClosed(u, v int32) bool {
	return mergeOpenInClosed(g.Neighbors(u), g.Neighbors(v), v)
}

// mergeOpenInClosed is SubsetOpenInClosed on explicit sorted rows
// nu = N(u), nv = N(v).
func mergeOpenInClosed(nu, nv []int32, v int32) bool {
	i, j := 0, 0
	for i < len(nu) {
		x := nu[i]
		if x == v { // v itself is in N[v]
			i++
			continue
		}
		for j < len(nv) && nv[j] < x {
			j++
		}
		if j == len(nv) || nv[j] != x {
			return false
		}
		i++
		j++
	}
	return true
}

// DropIsolated returns the graph restricted to vertices with at least
// one edge, relabeled densely. Edge-list datasets (the paper's inputs)
// never contain isolated vertices, so generators use this to match.
func (g *Graph) DropIsolated() *Graph {
	keep := make([]int32, 0, g.N())
	for u := int32(0); u < int32(g.N()); u++ {
		if g.Degree(u) > 0 {
			keep = append(keep, u)
		}
	}
	if len(keep) == g.N() {
		return g
	}
	sub, _ := g.InducedSubgraph(keep)
	return sub
}

// Clone returns a graph with g's rows that shares g's immutable blocks
// (a mapped graph's rows are copied) but none of its lazily built
// indexes: the copy rebuilds its own hub index and sketches on demand.
func (g *Graph) Clone() *Graph { return g.Patch(nil, nil, g.m) }

// Bytes returns the approximate in-memory size of the CSR arrays, used by
// the memory experiment (Fig 4) to report "graph size".
func (g *Graph) Bytes() int {
	return 4 * (g.n + 1 + 2*g.m)
}
