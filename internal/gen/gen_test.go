package gen

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestClique(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 10} {
		g := Clique(n)
		wantM := n * (n - 1) / 2
		if g.N() != n || g.M() != wantM {
			t.Fatalf("K_%d: n=%d m=%d want m=%d", n, g.N(), g.M(), wantM)
		}
		for u := int32(0); u < int32(n); u++ {
			if g.Degree(u) != n-1 {
				t.Fatalf("K_%d degree(%d)=%d", n, u, g.Degree(u))
			}
		}
	}
}

func TestPathCycleStar(t *testing.T) {
	p := Path(6)
	if p.M() != 5 || p.Degree(0) != 1 || p.Degree(2) != 2 {
		t.Fatalf("path wrong: m=%d", p.M())
	}
	c := Cycle(6)
	if c.M() != 6 {
		t.Fatalf("cycle m=%d", c.M())
	}
	for u := int32(0); u < 6; u++ {
		if c.Degree(u) != 2 {
			t.Fatalf("cycle degree(%d)=%d", u, c.Degree(u))
		}
	}
	if Cycle(2).M() != 1 {
		t.Fatal("2-cycle collapses to a single edge")
	}
	s := Star(5)
	if s.Degree(0) != 4 || s.M() != 4 {
		t.Fatal("star wrong")
	}
}

func TestCompleteBinaryTree(t *testing.T) {
	g := CompleteBinaryTree(7)
	if g.M() != 6 {
		t.Fatalf("tree edges = %d, want 6", g.M())
	}
	if g.Degree(0) != 2 || g.Degree(1) != 3 || g.Degree(3) != 1 {
		t.Fatal("tree degrees wrong")
	}
}

func TestERDeterminismAndDensity(t *testing.T) {
	a := ER(200, 0.05, 7)
	b := ER(200, 0.05, 7)
	if a.M() != b.M() {
		t.Fatalf("ER not deterministic: %d vs %d", a.M(), b.M())
	}
	c := ER(200, 0.05, 8)
	if a.M() == c.M() && a.N() > 0 {
		// Different seeds agreeing on exact m is possible but with
		// different edges; check edge sets differ.
		same := true
		a.Edges(func(u, v int32) {
			if !c.Has(u, v) {
				same = false
			}
		})
		if same {
			t.Fatal("different seeds produced identical ER graphs")
		}
	}
	// Expected edges = p * n(n-1)/2 = 0.05 * 19900 = 995.
	want := 995.0
	if math.Abs(float64(a.M())-want) > want*0.2 {
		t.Fatalf("ER edge count %d far from expectation %v", a.M(), want)
	}
}

func TestEREdgeCases(t *testing.T) {
	if g := ER(10, 0, 1); g.M() != 0 {
		t.Fatal("p=0 must be edgeless")
	}
	if g := ER(10, 1, 1); g.M() != 45 {
		t.Fatalf("p=1 must be complete, got %d", g.M())
	}
	if g := ER(1, 0.5, 1); g.N() != 1 || g.M() != 0 {
		t.Fatal("single vertex ER")
	}
	if g := ER(0, 0.5, 1); g.N() != 0 {
		t.Fatal("empty ER")
	}
}

func TestERDeltaP(t *testing.T) {
	g := ERDeltaP(1000, 1.0, 3)
	// p = ln(1000)/1000 ≈ 0.0069; E[m] ≈ 3450.
	want := math.Log(1000) / 1000 * 999 * 1000 / 2
	if math.Abs(float64(g.M())-want) > want*0.15 {
		t.Fatalf("ERDeltaP m=%d far from %v", g.M(), want)
	}
}

func TestPowerLawShape(t *testing.T) {
	g := PowerLaw(2000, 6000, 2.3, 11)
	if g.N() != 2000 {
		t.Fatalf("n=%d", g.N())
	}
	m := float64(g.M())
	if math.Abs(m-6000) > 6000*0.35 {
		t.Fatalf("power-law edges %v far from target 6000", m)
	}
	// Heavy tail: max degree far above average.
	stats := g.Stats()
	if float64(stats.MaxDegree) < 6*stats.AvgDegree {
		t.Fatalf("power-law graph lacks heavy tail: dmax=%d davg=%.1f",
			stats.MaxDegree, stats.AvgDegree)
	}
	// Determinism.
	h := PowerLaw(2000, 6000, 2.3, 11)
	if h.M() != g.M() {
		t.Fatal("power-law generator not deterministic")
	}
}

func TestPowerLawBetaControlsSkew(t *testing.T) {
	// Smaller β ⇒ heavier tail ⇒ larger max degree (for the same n, m).
	lo := PowerLaw(3000, 9000, 2.0, 5)
	hi := PowerLaw(3000, 9000, 3.4, 5)
	if lo.MaxDegree() <= hi.MaxDegree() {
		t.Fatalf("β=2.0 dmax %d should exceed β=3.4 dmax %d",
			lo.MaxDegree(), hi.MaxDegree())
	}
}

func TestBA(t *testing.T) {
	g := BA(500, 3, 17)
	if g.N() != 500 {
		t.Fatalf("BA n=%d", g.N())
	}
	// Roughly k edges per non-seed vertex plus the seed clique.
	want := 3*(500-4) + 6
	if math.Abs(float64(g.M()-want)) > float64(want)/5 {
		t.Fatalf("BA m=%d want ≈%d", g.M(), want)
	}
	if g.MaxDegree() < 3*3 {
		t.Fatalf("BA should grow hubs, dmax=%d", g.MaxDegree())
	}
	// M() is fixed by construction; only the edge lists show whether
	// one seed gives one graph.
	for i := 0; i < 20; i++ {
		if h := BA(500, 3, 17); !slices.Equal(h.EdgeList(), g.EdgeList()) {
			t.Fatal("BA not deterministic: same seed, different edges")
		}
	}
}

func TestBATiny(t *testing.T) {
	if g := BA(1, 2, 1); g.N() != 1 {
		t.Fatal("BA(1) wrong")
	}
	if g := BA(3, 5, 1); g.N() != 3 || g.M() != 3 {
		t.Fatalf("BA with k≥n collapses to clique, got m=%d", g.M())
	}
}

func TestPlantedClique(t *testing.T) {
	g, members := PlantedClique(200, 0.05, 12, 3)
	if len(members) != 12 {
		t.Fatalf("planted %d members", len(members))
	}
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if !g.Has(members[i], members[j]) {
				t.Fatalf("planted clique missing edge %d-%d", members[i], members[j])
			}
		}
	}
}

func TestQuickGeneratorsSimple(t *testing.T) {
	f := func(seed uint64, nRaw uint8, mRaw uint16) bool {
		n := int(nRaw%200) + 2
		m := int(mRaw%1000) + 1
		for _, g := range []interface {
			N() int
			M() int
			Degree(int32) int
		}{
			PowerLaw(n, m, 2.5, seed),
			BA(n, 1+int(seed%4), seed),
			ER(n, 0.05, seed),
		} {
			sum := 0
			for u := 0; u < g.N(); u++ {
				sum += g.Degree(int32(u))
			}
			if sum != 2*g.M() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
