package graph

import (
	"slices"
	"testing"

	"neisky/internal/bitset"
	"neisky/internal/rng"
)

// randomHubGraph builds an undirected G(n,p) graph dense enough that a
// meaningful fraction of vertices clear the hub threshold.
func randomHubGraph(r *rng.RNG, n int, p float64) *Graph {
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < p {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// naiveSubsetOpenInClosed is the spec: every x ∈ N(u) with x ≠ v must lie
// in N(v).
func naiveSubsetOpenInClosed(g *Graph, u, v int32) bool {
	for _, x := range g.Neighbors(u) {
		if x == v {
			continue
		}
		found := false
		for _, y := range g.Neighbors(v) {
			if y == x {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestHubKernelsMatchLegacyMerge(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 20; trial++ {
		g := randomHubGraph(r, 20+r.Intn(60), 0.05+0.5*r.Float64())
		h := g.Hub()
		n := int32(g.N())
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				if u == v {
					continue
				}
				want := naiveSubsetOpenInClosed(g, u, v)
				if got := h.SubsetOpenInClosed(u, v); got != want {
					t.Fatalf("hub SubsetOpenInClosed(%d,%d)=%v want %v (hubU=%v hubV=%v)",
						u, v, got, want, h.IsHub(u), h.IsHub(v))
				}
				if got := g.SubsetOpenInClosed(u, v); got != want {
					t.Fatalf("legacy SubsetOpenInClosed(%d,%d)=%v want %v", u, v, got, want)
				}
			}
		}
	}
}

func TestHubHasMatchesGraphHas(t *testing.T) {
	r := rng.New(32)
	g := randomHubGraph(r, 80, 0.3)
	h := g.Hub()
	if h.Hubs() == 0 {
		t.Fatal("dense test graph produced no hubs")
	}
	n := int32(g.N())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if h.Has(u, v) != g.Has(u, v) {
				t.Fatalf("Has(%d,%d) disagrees with adjacency", u, v)
			}
		}
	}
}

func TestHubThetaPolicy(t *testing.T) {
	r := rng.New(33)
	g := randomHubGraph(r, 120, 0.25)
	h := g.Hub()
	if h.Theta() < minHubDegree {
		t.Fatalf("theta %d below floor %d", h.Theta(), minHubDegree)
	}
	// Degree monotonicity: exactly the vertices with deg ≥ θ are hubs.
	hubs := 0
	for v := int32(0); v < int32(g.N()); v++ {
		isHub := g.Degree(v) >= h.Theta()
		if isHub != h.IsHub(v) {
			t.Fatalf("vertex %d deg=%d theta=%d: IsHub=%v", v, g.Degree(v), h.Theta(), h.IsHub(v))
		}
		if isHub {
			hubs++
		}
	}
	if hubs != h.Hubs() {
		t.Fatalf("Hubs()=%d, counted %d", h.Hubs(), hubs)
	}
	// Memory budget: bitmap words must fit within hubBudgetWords(m).
	words := h.Hubs() * bitset.WordsFor(g.N())
	if h.Hubs() > 0 && words > hubBudgetWords(g.M()) {
		t.Fatalf("index uses %d words, budget %d", words, hubBudgetWords(g.M()))
	}
	// Bitmap contents: each hub bitmap is exactly its open neighborhood.
	for v := int32(0); v < int32(g.N()); v++ {
		bv := h.Bits(v)
		if bv == nil {
			continue
		}
		if bv.Count() != g.Degree(v) {
			t.Fatalf("hub %d bitmap popcount %d != degree %d", v, bv.Count(), g.Degree(v))
		}
		for _, w := range g.Neighbors(v) {
			if !bv.Test(w) {
				t.Fatalf("hub %d bitmap missing neighbor %d", v, w)
			}
		}
	}
}

func TestHubIndexCached(t *testing.T) {
	g := randomHubGraph(rng.New(34), 40, 0.4)
	if g.Hub() != g.Hub() {
		t.Fatal("Hub() should return the same cached index")
	}
	if g.Clone().Hub() == g.Hub() {
		t.Fatal("clone must build its own index")
	}
}

func TestSparseGraphHasNoHubs(t *testing.T) {
	// A path graph never reaches minHubDegree; the index must degrade
	// to zero bitmaps and keep answering through the fallback paths.
	b := NewBuilder(50)
	for i := int32(0); i < 49; i++ {
		b.AddEdge(i, i+1)
	}
	g := b.Build()
	h := g.Hub()
	if h.Hubs() != 0 {
		t.Fatalf("path graph should have 0 hubs, got %d", h.Hubs())
	}
	if !h.SubsetOpenInClosed(0, 1) {
		t.Fatal("endpoint must be covered by its neighbor")
	}
	if h.SubsetOpenInClosed(1, 2) {
		t.Fatal("interior path vertex is not covered by its neighbor")
	}
}

func TestAdaptiveHasMatchesNaive(t *testing.T) {
	r := rng.New(35)
	for trial := 0; trial < 15; trial++ {
		// Mix of tiny (linear-scan) and large (galloping) adjacencies.
		g := randomHubGraph(r, 10+r.Intn(120), 0.02+0.4*r.Float64())
		n := int32(g.N())
		adj := make(map[[2]int32]bool)
		for u := int32(0); u < n; u++ {
			for _, v := range g.Neighbors(u) {
				adj[[2]int32{u, v}] = true
			}
		}
		for u := int32(0); u < n; u++ {
			for v := int32(0); v < n; v++ {
				if g.Has(u, v) != adj[[2]int32{u, v}] {
					t.Fatalf("Has(%d,%d) mismatch (deg(u)=%d)", u, v, g.Degree(u))
				}
			}
		}
	}
}

func TestMemoizedDegreeStats(t *testing.T) {
	r := rng.New(36)
	for trial := 0; trial < 10; trial++ {
		g := randomHubGraph(r, 5+r.Intn(80), 0.3)
		wantMax := 0
		hist := make([]int, g.N()+1)
		for v := int32(0); v < int32(g.N()); v++ {
			d := g.Degree(v)
			if d > wantMax {
				wantMax = d
			}
			hist[d]++
		}
		if g.MaxDegree() != wantMax {
			t.Fatalf("MaxDegree()=%d want %d", g.MaxDegree(), wantMax)
		}
		got := g.DegreeHist()
		if len(got) != wantMax+1 {
			t.Fatalf("DegreeHist len=%d want %d", len(got), wantMax+1)
		}
		for d, c := range got {
			if hist[d] != c {
				t.Fatalf("DegreeHist[%d]=%d want %d", d, c, hist[d])
			}
		}
		// Patch patches the summaries instead of rescanning: after
		// random edge flips they must equal a rebuild's.
		p, want := flip(g, randomPairs(r, g.N(), 1+r.Intn(8)))
		if p.MaxDegree() != want.MaxDegree() || !slices.Equal(p.DegreeHist(), want.DegreeHist()) {
			t.Fatalf("patched MaxDegree %d hist %v, rebuild %d %v",
				p.MaxDegree(), p.DegreeHist(), want.MaxDegree(), want.DegreeHist())
		}
	}
}
