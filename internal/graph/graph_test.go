package graph

import (
	"bytes"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"neisky/internal/rng"
)

func mustTriangle(t *testing.T) *Graph {
	t.Helper()
	return FromEdges(3, [][2]int32{{0, 1}, {1, 2}, {0, 2}})
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatalf("empty graph: got n=%d m=%d dmax=%d", g.N(), g.M(), g.MaxDegree())
	}
}

func TestSingleVertex(t *testing.T) {
	g := NewBuilder(1).Build()
	if g.N() != 1 || g.M() != 0 || g.Degree(0) != 0 {
		t.Fatalf("single vertex: n=%d m=%d deg0=%d", g.N(), g.M(), g.Degree(0))
	}
}

func TestBuilderDedupAndLoops(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop dropped
	b.AddEdge(2, 3)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("want 2 edges after dedup, got %d", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 1 || g.Degree(3) != 1 {
		t.Fatalf("unexpected degrees: %d %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2), g.Degree(3))
	}
}

func TestBuilderGrowsVertexCount(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 9)
	g := b.Build()
	if g.N() != 10 {
		t.Fatalf("builder should grow to 10 vertices, got %d", g.N())
	}
}

func TestNeighborsSortedAndHas(t *testing.T) {
	g := FromEdges(6, [][2]int32{{0, 5}, {0, 2}, {0, 4}, {0, 1}, {3, 0}})
	nbrs := g.Neighbors(0)
	if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
		t.Fatalf("neighbors not sorted: %v", nbrs)
	}
	for _, v := range []int32{1, 2, 3, 4, 5} {
		if !g.Has(0, v) || !g.Has(v, 0) {
			t.Fatalf("missing edge (0,%d)", v)
		}
	}
	if g.Has(1, 2) {
		t.Fatal("spurious edge (1,2)")
	}
	if g.Has(0, 0) {
		t.Fatal("self loop reported")
	}
}

func TestDegreeSumEquals2M(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(50)
		b := NewBuilder(n)
		edges := r.Intn(3 * n)
		for i := 0; i < edges; i++ {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		sum := 0
		for u := int32(0); u < int32(g.N()); u++ {
			sum += g.Degree(u)
		}
		if sum != 2*g.M() {
			t.Fatalf("degree sum %d != 2m %d", sum, 2*g.M())
		}
	}
}

func TestEdgesEnumeration(t *testing.T) {
	g := mustTriangle(t)
	var got [][2]int32
	g.Edges(func(u, v int32) { got = append(got, [2]int32{u, v}) })
	want := [][2]int32{{0, 1}, {0, 2}, {1, 2}}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: got %v want %v", i, got[i], want[i])
		}
	}
}

func TestStats(t *testing.T) {
	g := mustTriangle(t)
	s := g.Stats()
	if s.N != 3 || s.M != 3 || s.MaxDegree != 2 || s.AvgDegree != 2 {
		t.Fatalf("bad stats: %+v", s)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Fatalf("stats string: %s", s)
	}
}

func TestInducedSubgraph(t *testing.T) {
	// Path 0-1-2-3-4; induce on {0,1,2,4}: edges 0-1, 1-2 survive.
	g := FromEdges(5, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}})
	sub, orig := g.InducedSubgraph([]int32{0, 1, 2, 4})
	if sub.N() != 4 || sub.M() != 2 {
		t.Fatalf("induced: n=%d m=%d", sub.N(), sub.M())
	}
	if orig[3] != 4 {
		t.Fatalf("orig mapping wrong: %v", orig)
	}
	if !sub.Has(0, 1) || !sub.Has(1, 2) || sub.Has(2, 3) {
		t.Fatal("induced adjacency wrong")
	}
}

func TestSampleVerticesAndEdges(t *testing.T) {
	g := FromEdges(100, func() [][2]int32 {
		var e [][2]int32
		for i := int32(0); i < 99; i++ {
			e = append(e, [2]int32{i, i + 1})
		}
		return e
	}())
	r := rng.New(42)
	sub := g.SampleVertices(0.5, r.Float64)
	if sub.N() == 0 || sub.N() >= g.N() {
		t.Fatalf("vertex sample size %d out of expected range", sub.N())
	}
	r2 := rng.New(43)
	sube := g.SampleEdges(0.5, r2.Float64)
	if sube.N() != g.N() {
		t.Fatalf("edge sampling must preserve n: %d != %d", sube.N(), g.N())
	}
	if sube.M() == 0 || sube.M() >= g.M() {
		t.Fatalf("edge sample m=%d out of expected range", sube.M())
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	g := FromEdges(7, [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 0}, {0, 3}})
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip mismatch: n %d->%d m %d->%d", g.N(), g2.N(), g.M(), g2.M())
	}
	g.Edges(func(u, v int32) {
		if !g2.Has(u, v) {
			t.Fatalf("edge (%d,%d) lost in round trip", u, v)
		}
	})
}

func TestReadEdgeListCompactsIDs(t *testing.T) {
	in := strings.NewReader("# comment\n% konect comment\n10 20\n20 30\n")
	g, err := ReadEdgeList(in)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("compacted: n=%d m=%d", g.N(), g.M())
	}
	if !g.Has(0, 1) || !g.Has(1, 2) {
		t.Fatal("compacted adjacency wrong")
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"1\n", "a b\n", "1 b\n", "-1 2\n"}
	for _, c := range cases {
		if _, err := ReadEdgeList(strings.NewReader(c)); err == nil {
			t.Fatalf("input %q: want error", c)
		}
	}
}

func TestSubsetOpenInClosed(t *testing.T) {
	// Star with center 0: every leaf's N = {0} ⊆ N[0]; N(0) ⊄ N[leaf].
	g := FromEdges(4, [][2]int32{{0, 1}, {0, 2}, {0, 3}})
	for _, leaf := range []int32{1, 2, 3} {
		if !g.SubsetOpenInClosed(leaf, 0) {
			t.Fatalf("N(%d) should be ⊆ N[0]", leaf)
		}
		if g.SubsetOpenInClosed(0, leaf) {
			t.Fatalf("N(0) should not be ⊆ N[%d]", leaf)
		}
	}
	// Leaves are mutually included: N(1) = {0} ⊆ N[2] = {0, 2}.
	if !g.SubsetOpenInClosed(1, 2) {
		t.Fatal("leaf-leaf inclusion should hold")
	}
}

func TestSubsetOpenInClosedOracle(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(12)
		b := NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		for u := int32(0); u < int32(n); u++ {
			for v := int32(0); v < int32(n); v++ {
				if u == v {
					continue
				}
				want := true
				for _, x := range g.Neighbors(u) {
					if x != v && !g.Has(v, x) {
						want = false
						break
					}
				}
				if got := g.SubsetOpenInClosed(u, v); got != want {
					t.Fatalf("SubsetOpenInClosed(%d,%d)=%v want %v (graph %v)",
						u, v, got, want, g.EdgeList())
				}
			}
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustTriangle(t)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() || !c.Has(0, 1) {
		t.Fatal("clone differs")
	}
}

func TestBytesPositive(t *testing.T) {
	if mustTriangle(t).Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
}

func TestDropIsolated(t *testing.T) {
	g := FromEdges(6, [][2]int32{{1, 3}, {3, 5}})
	d := g.DropIsolated()
	if d.N() != 3 || d.M() != 2 {
		t.Fatalf("drop isolated: n=%d m=%d", d.N(), d.M())
	}
	// 1→0, 3→1, 5→2 in order.
	if !d.Has(0, 1) || !d.Has(1, 2) || d.Has(0, 2) {
		t.Fatal("relabeling wrong")
	}
	// No isolated vertices: returns the same graph.
	t2 := FromEdges(2, [][2]int32{{0, 1}})
	if t2.DropIsolated() != t2 {
		t.Fatal("no-op DropIsolated should return the receiver")
	}
}

func TestQuickSimpleGraphInvariants(t *testing.T) {
	f := func(seed uint64, nRaw uint8, extra uint16) bool {
		n := int(nRaw%40) + 2
		r := rng.New(seed)
		b := NewBuilder(n)
		for i := 0; i < int(extra%256); i++ {
			b.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
		}
		g := b.Build()
		// Invariant: no self loops, sorted unique adjacency, symmetry.
		for u := int32(0); u < int32(g.N()); u++ {
			nbrs := g.Neighbors(u)
			for i, v := range nbrs {
				if v == u {
					return false
				}
				if i > 0 && nbrs[i-1] >= v {
					return false
				}
				if !g.Has(v, u) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
