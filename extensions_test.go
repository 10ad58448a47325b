package neisky_test

import (
	"testing"

	"neisky"
)

func TestSkylineShardedFacade(t *testing.T) {
	g := neisky.GeneratePowerLaw(800, 2400, 2.2, 5)
	seq := neisky.Skyline(g)
	sh := neisky.SkylineSharded(g, neisky.Options{NoParallelCutoff: true}, neisky.ShardOptions{Workers: 4})
	if len(seq) != len(sh.Skyline) {
		t.Fatalf("sharded %d != sequential %d", len(sh.Skyline), len(seq))
	}
}

func TestApproxSkylineFacade(t *testing.T) {
	g := neisky.GeneratePowerLaw(500, 1500, 2.2, 7)
	exact := neisky.ApproxSkyline(g, 0, neisky.Options{})
	loose := neisky.ApproxSkyline(g, 0.4, neisky.Options{})
	if len(loose.Skyline) >= len(exact.Skyline) {
		t.Fatalf("ε=0.4 skyline (%d) should shrink vs exact (%d)",
			len(loose.Skyline), len(exact.Skyline))
	}
	if !neisky.EpsDominates(g, exact.Dominator[findDominated(exact)], findDominated(exact), 0) {
		t.Fatal("recorded dominator must ε=0-dominate")
	}
}

func findDominated(res *neisky.Result) int32 {
	for v := int32(0); v < int32(len(res.Dominator)); v++ {
		if res.Dominator[v] != v {
			return v
		}
	}
	return 0
}

func TestMaintainerFacade(t *testing.T) {
	m := neisky.NewEmptySkylineMaintainer(5)
	m.AddEdge(0, 1)
	m.AddEdge(0, 2)
	m.AddEdge(0, 3)
	m.AddEdge(0, 4)
	// Star: center 0 is the whole skyline.
	if m.SkylineSize() != 1 || !m.InSkyline(0) {
		t.Fatalf("star skyline size %d", m.SkylineSize())
	}
	m.RemoveEdge(0, 4)
	if !m.InSkyline(0) {
		t.Fatal("center still undominated")
	}
	g := neisky.Karate()
	mk := neisky.NewSkylineMaintainer(g)
	if mk.SkylineSize() != len(neisky.Skyline(g)) {
		t.Fatal("maintainer disagrees with static skyline on karate")
	}
}

func TestBetweennessFacade(t *testing.T) {
	g := neisky.GeneratePowerLaw(200, 600, 2.3, 11)
	bc := neisky.VertexBetweenness(g)
	if len(bc) != g.N() {
		t.Fatal("betweenness length")
	}
	group, val := neisky.MaximizeGroupBetweenness(g, 3, 0, 1)
	if len(group) != 3 || val <= 0 {
		t.Fatalf("group %v value %v", group, val)
	}
	exact := neisky.GroupBetweenness(g, group, 0, 1)
	if exact <= 0 {
		t.Fatal("exact group betweenness must be positive")
	}
}

func TestDistanceIndexFacade(t *testing.T) {
	g := neisky.GeneratePowerLaw(300, 900, 2.3, 13)
	ix := neisky.BuildDistanceIndex(g)
	s := []int32{0, 5}
	a := neisky.GroupValue(g, s, neisky.GroupCloseness)
	b := neisky.GroupValueIndexed(g, ix, s, neisky.GroupCloseness)
	if a != b {
		t.Fatalf("indexed group value %v != BFS %v", b, a)
	}
	if ix.Query(0, 0) != 0 {
		t.Fatal("self distance must be 0")
	}
}

func TestMISFacade(t *testing.T) {
	g := neisky.GenerateER(40, 0.15, 3)
	set := neisky.MaxIndependentSet(g)
	if !neisky.IsIndependentSet(g, set) {
		t.Fatal("MIS facade returned dependent set")
	}
	greedy := neisky.IndependentSetGreedy(g)
	if !neisky.IsIndependentSet(g, greedy) || len(greedy) > len(set) {
		t.Fatalf("greedy %d must be valid and ≤ optimum %d", len(greedy), len(set))
	}
	forced, kernel := neisky.ReduceForIndependentSet(g)
	if len(forced)+len(kernel) > g.N() {
		t.Fatal("reduction accounting broken")
	}
}

func TestPartialOrderFacade(t *testing.T) {
	g := neisky.Karate()
	po := neisky.AllDominations(g, neisky.Options{})
	if po.Pairs == 0 {
		t.Fatal("karate has domination pairs")
	}
	layer, count := po.Layers()
	if count < 2 || len(layer) != g.N() {
		t.Fatalf("layers: count=%d", count)
	}
	sky := neisky.Skyline(g)
	if len(po.Skyline()) != len(sky) {
		t.Fatal("partial-order skyline size mismatch")
	}
}

func TestTwinsFacade(t *testing.T) {
	g := neisky.GeneratePowerLaw(300, 600, 2.1, 4)
	classes := neisky.TwinClasses(g)
	if len(classes) == 0 || len(classes) > g.N() {
		t.Fatal("classes out of range")
	}
	q, rep, classOf := neisky.CollapseTwins(g)
	if q.N() != len(classes) || len(rep) != q.N() || len(classOf) != g.N() {
		t.Fatal("quotient shapes wrong")
	}
}
