package graph

import (
	"bytes"
	"slices"
	"testing"

	"neisky/internal/rng"
)

// flip toggles the edge of each pair (u ≠ v) of g through one Patch,
// and also returns FromEdges of the resulting edge set, built without
// Patch.
func flip(g *Graph, pairs [][2]int32) (patched, rebuilt *Graph) {
	edges := make(map[[2]int32]bool, g.M())
	for _, e := range g.EdgeList() {
		edges[e] = true
	}
	rows := map[int32][]int32{}
	row := func(u int32) []int32 {
		if r, ok := rows[u]; ok {
			return r
		}
		return slices.Clone(g.Neighbors(u))
	}
	m := g.M()
	for _, p := range pairs {
		u, v := p[0], p[1]
		if u == v {
			continue
		}
		ru, rv := row(u), row(v)
		i, had := slices.BinarySearch(ru, v)
		j, _ := slices.BinarySearch(rv, u)
		e := [2]int32{min(u, v), max(u, v)}
		if had {
			ru, rv = slices.Delete(ru, i, i+1), slices.Delete(rv, j, j+1)
			delete(edges, e)
			m--
		} else {
			ru, rv = slices.Insert(ru, i, v), slices.Insert(rv, j, u)
			edges[e] = true
			m++
		}
		rows[u], rows[v] = ru, rv
	}
	us := make([]int32, 0, len(rows))
	for u := range rows {
		us = append(us, u)
	}
	slices.Sort(us)
	rs := make([][]int32, len(us))
	for i, u := range us {
		rs[i] = rows[u]
	}
	list := make([][2]int32, 0, len(edges))
	for e := range edges {
		list = append(list, e)
	}
	return g.Patch(us, rs, m), FromEdges(g.N(), list)
}

// randomPairs returns k random vertex pairs of an n-vertex graph.
func randomPairs(r *rng.RNG, n, k int) [][2]int32 {
	pairs := make([][2]int32, k)
	for i := range pairs {
		pairs[i] = [2]int32{int32(r.Intn(n)), int32(r.Intn(n))}
	}
	return pairs
}

// samePatched reports the first way a patched graph differs from the
// rebuild of its edge set, or "".
func samePatched(r *rng.RNG, got, want *Graph) string {
	if got.N() != want.N() || got.M() != want.M() {
		return "n or m"
	}
	for u := int32(0); u < int32(got.N()); u++ {
		if !slices.Equal(got.Neighbors(u), want.Neighbors(u)) || got.Degree(u) != want.Degree(u) {
			return "a row"
		}
	}
	for i := 0; i < 64 && got.N() > 0; i++ {
		u, v := int32(r.Intn(got.N())), int32(r.Intn(got.N()))
		if got.Has(u, v) != want.Has(u, v) {
			return "Has"
		}
	}
	if got.MaxDegree() != want.MaxDegree() || !slices.Equal(got.DegreeHist(), want.DegreeHist()) {
		return "the degree summaries"
	}
	for _, s := range []int{1, 2, 3, 7, 64} {
		if !slices.Equal(got.PartitionShards(s), want.PartitionShards(s)) {
			return "PartitionShards"
		}
	}
	var a, b bytes.Buffer
	if got.WriteBinary2(&a, 0) != nil || want.WriteBinary2(&b, 0) != nil || !bytes.Equal(a.Bytes(), b.Bytes()) {
		return "the WriteBinary2 bytes"
	}
	return ""
}

// FuzzPatch applies random Patch sequences to a graph spanning several
// blocks, built directly or heap-loaded from a v2 snapshot, and checks
// every patched graph against FromEdges of the same edge set.
func FuzzPatch(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint8(3), false)
	f.Add(uint64(2), uint16(1500), uint8(4), true)
	f.Add(uint64(3), uint16(2048), uint8(2), false)
	f.Add(uint64(4), uint16(1025), uint8(5), true)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, steps uint8, loaded bool) {
		r := rng.New(seed)
		n := 1 + int(nRaw)%2600
		g := FromEdges(n, randomPairs(r, n, 2*n))
		if loaded {
			var buf bytes.Buffer
			if err := g.WriteBinary2(&buf, 0); err != nil {
				t.Fatal(err)
			}
			var err error
			if g, err = ReadBinary(&buf); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 1+int(steps)%8; step++ {
			k := 1 + r.Intn(12)
			// Half the steps hit one block's vertices only, the rest
			// spread over the graph.
			pairs := randomPairs(r, n, k)
			if step%2 == 1 {
				lo := int32(r.Intn(n)) &^ blockMask
				span := min(int32(n)-lo, blockSize)
				for i := range pairs {
					pairs[i] = [2]int32{lo + int32(r.Intn(int(span))), lo + int32(r.Intn(int(span)))}
				}
			}
			var want *Graph
			g, want = flip(g, pairs)
			if what := samePatched(r, g, want); what != "" {
				t.Fatalf("step %d (n=%d, pairs %v): %s differ from a rebuild", step, n, pairs, what)
			}
		}
	})
}

// TestPatchSharesUntouchedBlocks pins what a patch copies: the blocks
// holding a touched vertex, never the others.
func TestPatchSharesUntouchedBlocks(t *testing.T) {
	r := rng.New(5)
	n := 5*blockSize + 3
	g := FromEdges(n, randomPairs(r, n, 3*n))
	p, want := flip(g, [][2]int32{{3, 2*blockSize + 1}})
	if what := samePatched(r, p, want); what != "" {
		t.Fatalf("%s differ from a rebuild", what)
	}
	for k := range g.blocks {
		if shared := p.blocks[k].off == g.blocks[k].off; shared != (k != 0 && k != 2) {
			t.Errorf("block %d shared: %v", k, shared)
		}
	}
}

// TestPatchCopiesMappedGraphWhole pins the mmap rule: the first patch
// of a mapped graph shares nothing with the mapping, so the patched
// graph stays readable after Close.
func TestPatchCopiesMappedGraphWhole(t *testing.T) {
	r := rng.New(6)
	n := 2*blockSize + 9
	g := FromEdges(n, randomPairs(r, n, 2*n))
	mg, err := OpenMmap(writeSnapshot(t, g, 0))
	if err != nil {
		t.Fatal(err)
	}
	p, want := flip(mg.Graph, [][2]int32{{1, 2}})
	if err := mg.Close(); err != nil {
		t.Fatal(err)
	}
	if what := samePatched(r, p, want); what != "" {
		t.Fatalf("%s differ from a rebuild after the mapping closed", what)
	}
}
