package skytree

import (
	"testing"

	"neisky/internal/core"
	"neisky/internal/graph"
)

// FuzzTreeMaintainerOps decodes bytes into a seed graph and an update
// stream on at most 32 vertices: data[0] picks n, data[1] the number of
// seed edges (two bytes each), and every following triple (k, u, v) is
// an insert (k even) or a delete (k odd). After every op the maintainer
// and its graph must agree with a test-local edge set, its index with a
// from-scratch Build of that graph, and the index's skyline size with
// the brute-force oracle.
func FuzzTreeMaintainerOps(f *testing.F) {
	f.Add([]byte{5, 2, 0, 1, 1, 2, 0, 0, 2, 1, 0, 1, 0, 1, 2})
	f.Add([]byte{8, 0, 0, 0, 1, 0, 1, 2, 0, 0, 3, 1, 0, 1, 1, 1, 2, 0, 3, 4})
	f.Add([]byte{1, 0, 0, 0, 0})
	f.Add([]byte{31, 6, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 1, 0, 1, 0, 4, 5, 1, 2, 3, 1, 0, 2, 1, 0, 3})
	// N(8) = N(17) = {18, 19} is a tie that 8 wins; inserting 0-17 makes
	// 17 strictly dominate 8, which is not in N(0).
	f.Add([]byte{19, 4, 8, 18, 8, 19, 17, 18, 17, 19, 0, 0, 17})
	// Inserting 2-3 sends a vertex to a new deepest layer (2 → 3 layers).
	f.Add([]byte{4, 5, 0, 1, 0, 2, 0, 4, 1, 2, 1, 3, 0, 2, 3})
	// Deleting 0-3 leaves 0 isolated inside S_1 = {0, 1, 3}, where it is
	// maximal though a bare pair test would let 1 or 3 dominate it.
	f.Add([]byte{3, 5, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 1, 0, 3})
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
		m := NewMaintainer(b.Build(), BuildOptions{})
		for ; len(rest) >= 3; rest = rest[3:] {
			add, u, v := rest[0]%2 == 0, int32(rest[1])%n, int32(rest[2])%n
			if add {
				want := u != v && !edges[key(u, v)]
				if m.AddEdge(u, v) != want {
					t.Fatalf("AddEdge(%d,%d) reported %v", u, v, !want)
				}
				if want {
					edges[key(u, v)] = true
				}
			} else {
				want := u != v && edges[key(u, v)]
				if m.RemoveEdge(u, v) != want {
					t.Fatalf("RemoveEdge(%d,%d) reported %v", u, v, !want)
				}
				delete(edges, key(u, v))
			}
			if m.M() != len(edges) {
				t.Fatalf("M() = %d, edge set has %d", m.M(), len(edges))
			}
			g := m.Graph()
			for _, e := range g.EdgeList() {
				if !edges[e] {
					t.Fatalf("Graph() has edge %v outside the edge set", e)
				}
			}
			tr := m.Tree()
			if !tr.Equal(Build(g, BuildOptions{})) {
				t.Fatalf("index differs from a rebuild on edges %v", g.EdgeList())
			}
			if got, want := tr.SkylineSize(g), len(core.BruteForce(g).Skyline); got != want {
				t.Fatalf("SkylineSize %d, brute-force skyline has %d, on edges %v", got, want, g.EdgeList())
			}
		}
	})
}
