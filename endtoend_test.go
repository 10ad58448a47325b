package neisky_test

import (
	"bytes"
	"testing"

	"neisky"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/gen"
	"neisky/internal/graph"
)

// TestEndToEndPipeline exercises the whole system the way a downstream
// user would: generate a workload, persist and reload it, compute the
// skyline every way the library offers, run every application on it,
// then stream updates through the maintainer and re-verify.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Generate and persist.
	g0 := neisky.GeneratePowerLaw(600, 1800, 2.2, 99)
	var text, bin bytes.Buffer
	if err := g0.WriteEdgeList(&text); err != nil {
		t.Fatal(err)
	}
	if err := g0.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	gText, err := neisky.ReadEdgeList(&text)
	if err != nil {
		t.Fatal(err)
	}
	gBin, err := graph.ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if gText.M() != g0.M() || gBin.M() != g0.M() {
		t.Fatal("persistence round trip lost edges")
	}
	// Text round-trip compacts isolated vertices away; work with the
	// binary copy, which is exact.
	g := gBin

	// 2. Skyline, every way.
	want := neisky.Skyline(g)
	for _, algo := range []neisky.Algorithm{neisky.Base, neisky.TwoHop, neisky.CandidateSet} {
		got := neisky.ComputeSkyline(g, algo, neisky.Options{}).Skyline
		if len(got) != len(want) {
			t.Fatalf("%v disagrees: %d vs %d", algo, len(got), len(want))
		}
	}
	sh := neisky.SkylineSharded(g, neisky.Options{NoParallelCutoff: true}, neisky.ShardOptions{Workers: 4})
	if len(sh.Skyline) != len(want) {
		t.Fatal("sharded skyline disagrees")
	}

	// 3. Partial order and twins are consistent with the skyline.
	po := neisky.AllDominations(g, neisky.Options{})
	if len(po.Skyline()) != len(want) {
		t.Fatal("partial order skyline disagrees")
	}
	inSky := neisky.SkylineSet(neisky.SkylineResult(g, neisky.Options{}), g.N())
	for _, class := range neisky.TwinClasses(g) {
		for _, v := range class[1:] {
			if inSky[v] {
				t.Fatal("non-minimal twin in skyline")
			}
		}
	}

	// 4. Applications agree with their baselines.
	sky := neisky.MaxClique(g)
	base := neisky.MaxCliqueBase(g)
	if len(sky.Clique) != len(base.Clique) {
		t.Fatal("clique sizes disagree")
	}
	gc := neisky.MaximizeGroupCloseness(g, 5)
	if len(gc.Group) != 5 {
		t.Fatal("group closeness group wrong size")
	}
	isSet := neisky.IndependentSetGreedy(g)
	if !neisky.IsIndependentSet(g, isSet) {
		t.Fatal("independent set invalid")
	}

	// 5. Stream churn through the maintainer; verify against static
	// recomputation at the end.
	m := dynsky.New(g)
	for _, op := range gen.ChurnStream(g, 400, 123) {
		if op.Add {
			m.AddEdge(op.U, op.V)
		} else {
			m.RemoveEdge(op.U, op.V)
		}
	}
	recomputed := core.FilterRefineSky(m.Graph(), core.Options{})
	if !core.EqualSkylines(m.Skyline(), recomputed.Skyline) {
		t.Fatal("maintained skyline diverged from recomputation")
	}

	// 6. The ε-skyline at ε=0 matches; looser ε never grows it beyond n.
	if got := neisky.ApproxSkyline(g, 0, neisky.Options{}); len(got.Skyline) != len(want) {
		t.Fatal("ε=0 disagrees with exact skyline")
	}
}
