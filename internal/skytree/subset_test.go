package skytree

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"neisky/internal/gen"
	"neisky/internal/graph"
	"neisky/internal/rng"
)

// bruteSubset computes the skyline of G[Q] by full pairwise scans.
func bruteSubset(g *graph.Graph, sub []int32) []int32 {
	in := make([]bool, g.N())
	for _, v := range sub {
		in[v] = true
	}
	var out []int32
	for v := int32(0); v < int32(g.N()); v++ {
		if !in[v] {
			continue
		}
		dominated := false
		if bruteDeg(g, in, v) > 0 {
			for w := int32(0); w < int32(g.N()) && !dominated; w++ {
				if in[w] && bruteDominates(g, in, w, v) {
					dominated = true
				}
			}
		}
		if !dominated {
			out = append(out, v)
		}
	}
	return out
}

func sameIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSubsetMatchesOracle(t *testing.T) {
	r := rng.New(31)
	for name, g := range testFamilies(r) {
		tr := Build(g, BuildOptions{})
		for trial := 0; trial < 20; trial++ {
			var sub []int32
			for v := int32(0); v < int32(g.N()); v++ {
				if r.Float64() < 0.4 {
					sub = append(sub, v)
				}
			}
			want := bruteSubset(g, sub)
			withTree := SubsetSkyline(g, tr, sub)
			noTree := SubsetSkyline(g, nil, sub)
			if !sameIDs(withTree.Skyline, want) {
				t.Fatalf("%s: tree-assisted %v != oracle %v (Q=%v)", name, withTree.Skyline, want, sub)
			}
			if !sameIDs(noTree.Skyline, want) {
				t.Fatalf("%s: unassisted %v != oracle %v (Q=%v)", name, noTree.Skyline, want, sub)
			}
		}
	}
}

func TestSubsetFullSetIsLayerZero(t *testing.T) {
	// Q = V reduces to the level-0 skyline, modulo the isolated-vertex
	// convention both sides share.
	r := rng.New(33)
	g := gen.ER(50, 0.12, r.Uint64())
	tr := Build(g, BuildOptions{})
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	got := SubsetSkyline(g, tr, all)
	if !sameIDs(got.Skyline, tr.LayerVertices(0)) {
		t.Fatalf("subset(V) %v != layer 0 %v", got.Skyline, tr.LayerVertices(0))
	}
}

func TestSubsetInputHygiene(t *testing.T) {
	g := gen.Path(6)
	tr := Build(g, BuildOptions{})
	// Duplicates, out-of-range and unsorted input are all tolerated.
	got := SubsetSkyline(g, tr, []int32{5, 2, 2, -1, 99, 0})
	want := bruteSubset(g, []int32{0, 2, 5})
	if !sameIDs(got.Skyline, want) {
		t.Fatalf("hygiene: %v != %v", got.Skyline, want)
	}
	if empty := SubsetSkyline(g, tr, nil); len(empty.Skyline) != 0 || empty.Truncated {
		t.Fatalf("empty subset: %+v", empty)
	}
}

func TestSubsetCancelledIsSuperset(t *testing.T) {
	r := rng.New(35)
	g := gen.ER(300, 0.03, r.Uint64())
	tr := Build(g, BuildOptions{})
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got := SubsetSkylineCtx(ctx, g, tr, all)
	if !got.Truncated || got.Err == nil {
		t.Fatalf("cancelled subset: Truncated=%v Err=%v", got.Truncated, got.Err)
	}
	exact := map[int32]bool{}
	for _, v := range bruteSubset(g, all) {
		exact[v] = true
	}
	in := map[int32]bool{}
	for _, v := range got.Skyline {
		in[v] = true
	}
	for v := range exact {
		if !in[v] {
			t.Fatalf("truncated result dropped skyline vertex %d", v)
		}
	}
}

func TestSubsetWitnessCountersMove(t *testing.T) {
	r := rng.New(37)
	g := gen.BA(200, 4, r.Uint64())
	tr := Build(g, BuildOptions{})
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	res := SubsetSkyline(g, tr, all)
	if res.PairsExamined == 0 {
		t.Fatal("no pairs examined on a dense query")
	}
	if res.WitnessHits == 0 {
		t.Fatal("parent witness never hit on Q=V (it must: parents dominate at their level, and Q=V contains every witness)")
	}
}

// medianBytes returns the median heap bytes one call of f allocates
// over runs calls. The median discards a run in which a collection
// emptied a sync.Pool.
func medianBytes(runs int, f func()) uint64 {
	var ms runtime.MemStats
	per := make([]uint64, runs)
	for i := range per {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		f()
		runtime.ReadMemStats(&ms)
		per[i] = ms.TotalAlloc - before
	}
	slices.Sort(per)
	return per[runs/2]
}

// TestSubsetBytesFlatInN pins that a subset query costs its Q, not n:
// the same 200-vertex query allocates under twice as many bytes at
// n=80k as at n=10k (the n-entry membership array is reused, not
// allocated and zeroed per query).
func TestSubsetBytesFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 80k-vertex graph")
	}
	measure := func(n int) uint64 {
		g := gen.PowerLaw(n, 4*n, 2.5, 31)
		r := rng.New(32)
		sub := make([]int32, 200)
		for i := range sub {
			sub[i] = int32(r.Intn(n))
		}
		SubsetSkyline(g, nil, sub)
		return medianBytes(9, func() { SubsetSkyline(g, nil, sub) })
	}
	small, large := measure(10000), measure(80000)
	t.Logf("bytes per 200-vertex subset query: %d at n=10k, %d at n=80k", small, large)
	if large >= 2*small {
		t.Errorf("subset query bytes grow with n: %d at n=10k, %d at n=80k", small, large)
	}
}
