package dynsky

import (
	"slices"
	"testing"

	"neisky/internal/core"
	"neisky/internal/graph"
)

// FuzzMaintainerOps decodes bytes into a seed graph and an update
// stream on at most 32 vertices: data[0] picks n, data[1] the number of
// seed edges (two bytes each), and every following triple (k, u, v) is
// an insert (k%3 == 0), a delete (k%3 == 1) or a Graph() snapshot
// (k%3 == 2). Each snapshot is followed by the serving daemon's carry:
// the stream continues on a maintainer Seeded from that snapshot and
// the old maintainer's Dominators. After every op and every carry the
// maintainer must agree with a test-local edge set, and its O array
// with the brute-force oracle's, isolated vertices included; every
// snapshot must be a valid CSR of exactly that edge set and never the
// graph the maintainer was seeded or last rebased on. Every array a
// carry published must still read as it did when published at the end
// of the stream, whatever the later ops wrote to the pages it shares.
func FuzzMaintainerOps(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 1, 2, 0, 0, 2, 2, 0, 0, 1, 0, 1, 2, 0, 0})
	f.Add([]byte{8, 0, 0, 0, 1, 0, 1, 2, 2, 0, 0, 1, 0, 1, 1, 2, 0, 0, 0, 3, 4, 2, 0, 0})
	f.Add([]byte{1, 0, 2, 0, 0})
	f.Add([]byte{31, 6, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 1, 0, 1, 0, 4, 5, 2, 0, 0, 1, 2, 3, 2, 0, 0})
	// Isolate vertex 0 beside other edges, so its entry follows the
	// smallest non-isolated vertex, carry it, then isolate that vertex.
	f.Add([]byte{6, 4, 0, 1, 0, 2, 1, 3, 4, 5, 1, 0, 1, 1, 0, 2, 2, 0, 0, 1, 1, 3, 0, 0, 3, 2, 0, 0})
	// Empty the graph, carry the edgeless array, then insert again.
	f.Add([]byte{5, 3, 0, 1, 1, 2, 3, 4, 1, 0, 1, 1, 1, 2, 1, 3, 4, 2, 0, 0, 0, 2, 3, 0, 0, 4, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int32(data[0]%32) + 1
		edges := map[[2]int32]bool{}
		key := func(u, v int32) [2]int32 {
			if u > v {
				u, v = v, u
			}
			return [2]int32{u, v}
		}
		b := graph.NewBuilder(int(n))
		rest := data[2:]
		for s := int(data[1] % 64); s > 0 && len(rest) >= 2; s-- {
			u, v := int32(rest[0])%n, int32(rest[1])%n
			rest = rest[2:]
			b.AddEdge(u, v)
			if u != v {
				edges[key(u, v)] = true
			}
		}
		prev := b.Build()
		m := New(prev)
		type published struct {
			d    Dominators
			flat []int32
		}
		var carried []published
		for ; len(rest) >= 3; rest = rest[3:] {
			k, u, v := rest[0]%3, int32(rest[1])%n, int32(rest[2])%n
			switch k {
			case 0:
				want := u != v && !edges[key(u, v)]
				if m.AddEdge(u, v) != want {
					t.Fatalf("AddEdge(%d,%d) reported %v", u, v, !want)
				}
				if want {
					edges[key(u, v)] = true
				}
			case 1:
				want := u != v && edges[key(u, v)]
				if m.RemoveEdge(u, v) != want {
					t.Fatalf("RemoveEdge(%d,%d) reported %v", u, v, !want)
				}
				delete(edges, key(u, v))
			case 2:
				g := m.Graph()
				if g == prev {
					t.Fatal("Graph returned the graph the maintainer was reading")
				}
				checkCSR(t, g, edges)
				prev = g
				d := m.Dominators()
				carried = append(carried, published{d, d.Slice()})
				m = Seeded(g, d)
			}
			if m.M() != len(edges) {
				t.Fatalf("M() = %d, edge set has %d", m.M(), len(edges))
			}
			list := make([][2]int32, 0, len(edges))
			for e := range edges {
				list = append(list, e)
			}
			want := core.BruteForce(graph.FromEdges(int(n), list))
			d := m.Dominators()
			if got := d.Slice(); !slices.Equal(got, want.Dominator) || d.SkylineSize() != len(want.Skyline) {
				t.Fatalf("O array %v, oracle %v on edges %v", got, want.Dominator, list)
			}
			if got := m.Skyline(); !core.EqualSkylines(got, want.Skyline) || m.SkylineSize() != len(want.Skyline) {
				t.Fatalf("skyline %v (size %d), oracle %v on edges %v", got, m.SkylineSize(), want.Skyline, list)
			}
		}
		checkCSR(t, m.Graph(), edges)
		for i, p := range carried {
			if !slices.Equal(p.d.Slice(), p.flat) {
				t.Fatalf("carried array %d changed after it was published", i)
			}
		}
	})
}

// checkCSR asserts g is a valid simple undirected CSR — strictly
// ascending rows, no self-loops, symmetric, M() == Σdeg/2 — holding
// exactly the given edge set.
func checkCSR(t *testing.T, g *graph.Graph, edges map[[2]int32]bool) {
	t.Helper()
	degSum := 0
	for u := int32(0); u < int32(g.N()); u++ {
		row := g.Neighbors(u)
		degSum += len(row)
		for i, v := range row {
			switch {
			case v == u:
				t.Fatalf("self-loop at %d", u)
			case i > 0 && row[i-1] >= v:
				t.Fatalf("row %d not strictly ascending: %v", u, row)
			case !g.Has(v, u):
				t.Fatalf("edge (%d,%d) missing its mirror", u, v)
			case u < v && !edges[[2]int32{u, v}]:
				t.Fatalf("edge (%d,%d) not in the edge set", u, v)
			}
		}
	}
	if degSum != 2*g.M() || g.M() != len(edges) {
		t.Fatalf("degree sum %d, M() %d, edge set %d", degSum, g.M(), len(edges))
	}
}
