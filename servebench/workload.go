package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"neisky/internal/graph"
)

// Request classes, named after the daemon's serve.<class>.* counters.
const (
	clsSkyline    = "skyline"
	clsDominators = "dominators"
	clsClique     = "clique"
	clsLayers     = "layers"
	clsExplain    = "explain"
	clsSubset     = "subset"
	clsSwap       = "swap"
)

// readClasses lists every read class in a fixed order (for reports).
var readClasses = []string{clsSkyline, clsDominators, clsClique, clsLayers, clsExplain, clsSubset}

const (
	snapN    = 100_000 // snapshot vertex count
	snapM    = 400_000 // target edge count
	snapBeta = 2.5     // power-law exponent

	layersK      = 3     // /v1/skyline/layers?k=
	defaultLimit = 10000 // the daemon's default list cap (serve.Options.MaxList)
	subsetFrac   = 0.01  // subset queries sample 1% of the vertices
	subsetPool   = 256   // distinct seeded subsets a run cycles through
	batchOps     = 8     // ops per swap batch
	opShare      = 0.5   // ops come from the cheaper half of the 2-hop volume distribution
	ckptEvery    = 4     // POST /v1/checkpoint after every 4th acknowledged swap
	probeSwaps   = 10    // closed-loop swaps of the write probe on the read-only workloads
	restarts     = 3     // kill -9 and recovery cycles per run

	// swapPeriod spaces the open-loop swaps of durable-writes. A swap
	// that carries the layered index costs 0.5-1 s at n=100k on two
	// cores, so one every 2 s leaves no backlog; one a second would run
	// the writer near saturation.
	swapPeriod = 2 * time.Second
)

type mixEntry struct {
	class  string
	weight int // percent
}

// workload is one traffic mix. Readers are closed-loop clients, one
// connection each; a writing workload adds one open-loop writer
// connection, so no workload uses more than two connections.
type workload struct {
	name    string
	readers int
	mix     []mixEntry
	writes  bool // open-loop swaps run during the read window
}

var workloads = map[string]workload{
	"skyline-reads": {name: "skyline-reads", readers: 2, mix: []mixEntry{
		{clsSkyline, 40}, {clsDominators, 40}, {clsClique, 20}}},
	"index-reads": {name: "index-reads", readers: 2, mix: []mixEntry{
		{clsLayers, 15}, {clsExplain, 55}, {clsSubset, 30}}},
	"durable-writes": {name: "durable-writes", readers: 1, writes: true, mix: []mixEntry{
		{clsSkyline, 15}, {clsDominators, 15}, {clsLayers, 10}, {clsExplain, 40}, {clsSubset, 20}}},
}

// classes returns the workload's read classes in mix order.
func (w workload) classes() []string {
	out := make([]string, len(w.mix))
	for i, e := range w.mix {
		out[i] = e.class
	}
	return out
}

// usesTree reports whether the workload queries the layered index,
// which makes the daemon carry the index across swaps.
func (w workload) usesTree() bool {
	for _, e := range w.mix {
		if e.class == clsLayers || e.class == clsExplain || e.class == clsSubset {
			return true
		}
	}
	return false
}

// prng is splitmix64. The benchmark keeps its own generator so its
// request streams and op batches never change with the program's code.
type prng struct{ s uint64 }

func newPRNG(seed uint64, salt ...uint64) *prng {
	p := &prng{s: seed}
	for _, x := range salt {
		p.s = p.next() ^ x
	}
	return p
}

func (p *prng) next() uint64 {
	p.s += 0x9e3779b97f4a7c15
	z := p.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// request is one generated HTTP request plus the inputs its oracle
// check and its traced replay need.
type request struct {
	idx    int
	class  string
	method string
	url    string // path and query
	body   []byte
	ids    []int32 // dominators: queried vertices
	v      int32   // explain: queried vertex
	sub    int     // subset: index into stream.subsets
}

// stream is a workload's seeded read-request sequence: request i
// depends only on the seed, the workload and i, so every reader can
// draw from one shared counter and the sequence stays the same.
type stream struct {
	w       workload
	seed    uint64
	n       int
	subsets [][]int32 // ascending, distinct
	bodies  [][]byte
}

func newStream(w workload, seed uint64, n int) *stream {
	s := &stream{w: w, seed: seed, n: n}
	p := newPRNG(seed, 0x5b5e7)
	k := int(float64(n) * subsetFrac)
	for i := 0; i < subsetPool; i++ {
		seen := make(map[int32]bool, k)
		sub := make([]int32, 0, k)
		for len(sub) < k {
			v := int32(p.intn(n))
			if !seen[v] {
				seen[v] = true
				sub = append(sub, v)
			}
		}
		slices.Sort(sub)
		body, _ := json.Marshal(map[string][]int32{"v": sub}) // cannot fail on []int32
		s.subsets = append(s.subsets, sub)
		s.bodies = append(s.bodies, body)
	}
	return s
}

func (s *stream) at(i int) request {
	p := newPRNG(s.seed, 0x7ead, uint64(i))
	roll := p.intn(100)
	class := s.w.mix[len(s.w.mix)-1].class
	for _, e := range s.w.mix {
		if roll < e.weight {
			class = e.class
			break
		}
		roll -= e.weight
	}
	rq := request{idx: i, class: class, method: "GET"}
	switch class {
	case clsSkyline:
		rq.url = "/v1/skyline"
	case clsDominators:
		k := 1 + p.intn(8)
		parts := make([]string, k)
		for j := range parts {
			v := int32(p.intn(s.n))
			rq.ids = append(rq.ids, v)
			parts[j] = strconv.Itoa(int(v))
		}
		rq.url = "/v1/dominators?v=" + strings.Join(parts, ",")
	case clsClique:
		rq.url = "/v1/clique?k=1"
	case clsLayers:
		rq.url = fmt.Sprintf("/v1/skyline/layers?k=%d", layersK)
	case clsExplain:
		rq.v = int32(p.intn(s.n))
		rq.url = fmt.Sprintf("/v1/skyline/explain?v=%d", rq.v)
	case clsSubset:
		rq.sub = p.intn(len(s.subsets))
		rq.method = "POST"
		rq.url = "/v1/skyline/subset"
		rq.body = s.bodies[rq.sub]
	}
	return rq
}

// firstOf returns the first request of the stream with the given
// class (warm-up and recovery issue one request per class).
func (s *stream) firstOf(class string) request {
	for i := 0; ; i++ {
		if rq := s.at(i); rq.class == class {
			return rq
		}
	}
}

// op is one edge update, in the daemon's swap-request shape.
type op struct {
	Add bool  `json:"add"`
	U   int32 `json:"u"`
	V   int32 `json:"v"`
}

// edgeModel is the benchmark's own copy of the served edge set: it
// generates valid batches and, with every acknowledged batch applied,
// is the graph the oracle checks the daemon against.
type edgeModel struct {
	n     int
	edges [][2]int32 // u < v
	pos   map[uint64]int
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func newEdgeModel(g *graph.Graph) *edgeModel {
	m := &edgeModel{n: g.N(), edges: g.EdgeList()}
	m.pos = make(map[uint64]int, len(m.edges))
	for i, e := range m.edges {
		m.pos[edgeKey(e[0], e[1])] = i
	}
	return m
}

func (m *edgeModel) clone() *edgeModel {
	c := &edgeModel{n: m.n, edges: slices.Clone(m.edges), pos: make(map[uint64]int, len(m.pos))}
	for k, v := range m.pos {
		c.pos[k] = v
	}
	return c
}

func (m *edgeModel) has(u, v int32) bool {
	_, ok := m.pos[edgeKey(u, v)]
	return ok
}

func (m *edgeModel) apply(o op) {
	k := edgeKey(o.U, o.V)
	if o.Add {
		if _, ok := m.pos[k]; !ok {
			m.pos[k] = len(m.edges)
			m.edges = append(m.edges, [2]int32{min(o.U, o.V), max(o.U, o.V)})
		}
		return
	}
	i, ok := m.pos[k]
	if !ok {
		return
	}
	last := len(m.edges) - 1
	m.edges[i] = m.edges[last]
	m.pos[edgeKey(m.edges[i][0], m.edges[i][1])] = i
	m.edges = m.edges[:last]
	delete(m.pos, k)
}

func (m *edgeModel) graph() *graph.Graph { return graph.FromEdges(m.n, m.edges) }

// makeBatches draws count seeded batches from a private copy of m, the
// edge set of g. Each batch alternates adding an absent edge and
// removing a present one, so every op changes the graph and the daemon
// must report it applied.
//
// Maintenance cost per op is heavy-tailed: it grows with the 2-hop
// volume of the endpoints, and an op next to a hub costs a hundred times
// a typical one, so a few unlucky draws would decide a run's write
// latency. Ops are therefore drawn from the cheaper opShare of the
// 2-hop volume distribution of random candidates (volumes measured on
// g), and stratified so that every batch carries the same mix: one add
// and one remove from each quarter of that range.
func makeBatches(g *graph.Graph, m *edgeModel, seed uint64, count int) [][]op {
	m = m.clone()
	p := newPRNG(seed, 0xba7c4)
	vol := make([]int, g.N())
	for x := int32(0); int(x) < g.N(); x++ {
		vol[x] = g.Degree(x)
		for _, w := range g.Neighbors(x) {
			vol[x] += g.Degree(w)
		}
	}
	cost := func(o op) int { return vol[o.U] + vol[o.V] }
	draw := func(add bool) op {
		if add {
			for {
				u, v := int32(p.intn(m.n)), int32(p.intn(m.n))
				if u != v && !m.has(u, v) {
					return op{Add: true, U: u, V: v}
				}
			}
		}
		e := m.edges[p.intn(len(m.edges))]
		return op{U: e[0], V: e[1]}
	}
	const strata = batchOps / 2
	const probes = 4096
	const span = int(probes * opShare) // ranks ops may be drawn from
	// vols[kind] holds the sorted volumes of random candidates (kind 0
	// removes, 1 adds). Stratum q is the closed volume range of ranks
	// [q, q+1)*span/strata, never empty even where volumes tie.
	var vols [2][]int
	for kind := range vols {
		vols[kind] = make([]int, probes)
		for i := range vols[kind] {
			vols[kind][i] = cost(draw(kind == 1))
		}
		slices.Sort(vols[kind])
	}
	in := func(kind, q, c int) bool {
		vs := vols[kind]
		return vs[q*span/strata] <= c && c <= vs[(q+1)*span/strata-1]
	}
	out := make([][]op, count)
	for b := range out {
		batch := make([]op, batchOps)
		for j := range batch {
			kind := 1 - j%2 // even slots add, odd slots remove
			var o op
			for {
				o = draw(kind == 1)
				if in(kind, j/2, cost(o)) {
					break
				}
			}
			m.apply(o)
			batch[j] = o
		}
		out[b] = batch
	}
	return out
}
