package core

import (
	"testing"

	"neisky/internal/graph"
	"neisky/internal/paged"
)

// FuzzDominanceKernel decodes a graph on at most 24 vertices and a
// scope, then checks the kernel against Definition 2 evaluated by brute
// force on the induced subgraph G[S] (Dominates on InducedSubgraph,
// whose relabeling keeps ID order): every dominator lies in the pivot's
// closed neighborhood, the pair test agrees on every pair, and both
// scans return what a full scan of S returns.
//
// Input layout: data[0] picks n, data[1] the scope (mod 3: the whole
// graph, a level, a query set) and the level k; a level takes n bytes
// of layers in -1..3 (-1 is unassigned), a query set n bytes of
// membership bits; the remaining bytes are edge endpoint pairs.
func FuzzDominanceKernel(f *testing.F) {
	// Q = {0,1,2,3,4,9}: vertex 0's one neighbor is outside Q, so it is
	// isolated in Q, and 4 dominates 3 inside Q although 3 has more
	// neighbors in G.
	f.Add([]byte{9, 2, 1, 1, 1, 1, 1, 0, 0, 0, 0, 1, 0, 5, 2, 3, 3, 4, 3, 5, 3, 6, 3, 7, 2, 4, 4, 9})
	// The whole 4-cycle 0-1-2-3: N(0) = N(2) and N(1) = N(3), mutual
	// inclusions that the ID tie-break decides.
	f.Add([]byte{3, 0, 0, 1, 1, 2, 2, 3, 3, 0})
	// Level S_1 of layers [0 -1 1 1 2 -1]: the star 1-{2,3,4,5} lies in
	// S_1 through its unassigned center 1, the smallest dominator of 3,
	// but layer 1's smallest is 2.
	f.Add([]byte{5, 4, 1, 0, 2, 2, 3, 0, 1, 2, 1, 3, 1, 4, 1, 5, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := int(data[0]%24) + 1
		kind, k := data[1]%3, int32(data[1]/3%4)
		rest := data[2:]
		bytesFor := func(i int) byte {
			if i < len(rest) {
				return rest[i]
			}
			return 0
		}
		var s Scope
		var layer []int32
		inS := func(int32) bool { return true }
		switch kind {
		case 1:
			layer = make([]int32, n)
			for i := range layer {
				layer[i] = int32(bytesFor(i)%5) - 1
			}
			pages := paged.From(layer)
			s = Level(&pages, k)
			inS = func(v int32) bool { return layer[v] < 0 || layer[v] >= k }
		case 2:
			in := make([]bool, n)
			for i := range in {
				in[i] = bytesFor(i)&1 == 1
			}
			s = Subset(in)
			inS = func(v int32) bool { return in[v] }
		}
		if kind != 0 {
			rest = rest[min(n, len(rest)):]
		}
		b := graph.NewBuilder(n)
		for i := 0; i+1 < len(rest) && i < 128; i += 2 {
			b.AddEdge(int32(rest[i])%int32(n), int32(rest[i+1])%int32(n))
		}
		g := b.Build()

		// Brute force: dom(w, x) is Definition 2 in G[S].
		var members []int32
		local := make([]int32, n)
		for v := int32(0); v < int32(n); v++ {
			local[v] = -1
			if s.Contains(v) != inS(v) {
				t.Fatalf("Contains(%d) = %v, want %v", v, s.Contains(v), inS(v))
			}
			if inS(v) {
				local[v] = int32(len(members))
				members = append(members, v)
			}
		}
		sub, _ := g.InducedSubgraph(members)
		dom := func(w, x int32) bool { return Dominates(sub, local[w], local[x]) }

		kn := Kernel{G: g, S: s}
		for _, x := range members {
			isolated := sub.Degree(local[x]) == 0
			p := kn.Pivot(x)
			switch {
			case isolated && p != -1:
				t.Fatalf("x=%d is isolated in S but has pivot %d", x, p)
			case !isolated && (p < 0 || !inS(p) || !g.Has(x, p)):
				t.Fatalf("x=%d: pivot %d is not an S-neighbor", x, p)
			}
			for _, y := range g.Neighbors(x) {
				if inS(y) && (g.Degree(y) < g.Degree(p) || g.Degree(y) == g.Degree(p) && y < p) {
					t.Fatalf("x=%d: pivot %d (degree %d), but S-neighbor %d has degree %d",
						x, p, g.Degree(p), y, g.Degree(y))
				}
			}
			first, smallest := int32(-1), int32(-1)
			for _, w := range members {
				want := dom(w, x)
				if got := kn.Dominates(w, x); got != want {
					t.Fatalf("Dominates(%d, %d) = %v, brute force on G[S] says %v (edges %v)", w, x, got, want, g.EdgeList())
				}
				if !want || isolated {
					continue
				}
				if w != p && !g.Has(p, w) {
					t.Fatalf("dominator %d of %d lies outside N[%d] (edges %v)", w, x, p, g.EdgeList())
				}
				if first < 0 {
					first = w
				}
				if smallest < 0 && (layer == nil || layer[w] == k) {
					smallest = w
				}
			}
			if got := kn.FirstDominator(x); (got < 0) != (first < 0) || got >= 0 && !dom(got, x) {
				t.Fatalf("FirstDominator(%d) = %d, brute force finds %d first (edges %v)", x, got, first, g.EdgeList())
			}
			if got := kn.SmallestDominator(x); got != smallest {
				t.Fatalf("SmallestDominator(%d) = %d, brute force says %d (edges %v)", x, got, smallest, g.EdgeList())
			}
		}
	})
}
