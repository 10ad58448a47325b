package skytree

import (
	"testing"

	"neisky/internal/gen"
	"neisky/internal/obs"
	"neisky/internal/rng"
)

// TestSubsetWorkPinned pins the subset query's probe order by its exact
// work on a seeded graph: the parent-witness probe, the pivot, then the
// pivot's neighbors shallow layers first (and without the index, the
// pivot and then its neighbors in ID order). A change to the order, to the
// pivot rule or to which probes count moves these numbers even when the
// answer stays right. Q = V and a 30% Q both hit the witness probe.
func TestSubsetWorkPinned(t *testing.T) {
	g := gen.PowerLaw(2000, 4000, 2.5, 41)
	tr := Build(g, BuildOptions{})
	all := make([]int32, g.N())
	for v := range all {
		all[v] = int32(v)
	}
	r := rng.New(42)
	var part []int32
	for v := int32(0); v < int32(g.N()); v++ {
		if r.Float64() < 0.3 {
			part = append(part, v)
		}
	}
	for _, c := range []struct {
		name           string
		t              *Tree
		q              []int32
		pairs, witness int
	}{
		{"Q=V", tr, all, 4258, 463},
		{"Q=30%", tr, part, 438, 17},
		{"Q=30% without the index", nil, part, 437, 0},
	} {
		res := SubsetSkyline(g, c.t, c.q)
		if res.PairsExamined != c.pairs || res.WitnessHits != c.witness {
			t.Errorf("%s: %d pairs examined and %d witness hits, want %d and %d",
				c.name, res.PairsExamined, res.WitnessHits, c.pairs, c.witness)
		}
	}
}

// TestCarryDirtyWorkPinned pins the tree maintainer's work over a fixed
// op stream: the skytree.update.dirty total, which counts the level
// re-decisions (one first-dominator scan each) of every op's cascade.
// The witness rule picks the re-decided vertices and the level
// predicates decide when the cascade stops, so a change to either that
// keeps every layer right can still move this total.
func TestCarryDirtyWorkPinned(t *testing.T) {
	rec := obs.New()
	defer obs.Swap(obs.Swap(rec))
	g := gen.PowerLaw(2000, 8000, 2.5, 43)
	m := NewMaintainer(g, BuildOptions{})
	r := rng.New(44)
	for applied := 0; applied < 64; {
		u, v := int32(r.Intn(g.N())), int32(r.Intn(g.N()))
		if u == v {
			continue
		}
		if m.rows.Has(u, v) {
			m.RemoveEdge(u, v)
		} else {
			m.AddEdge(u, v)
		}
		applied++
	}
	if dirty := rec.Snapshot().Counters["skytree.update.dirty"]; dirty != 1696 {
		t.Errorf("64 ops made %d level re-decisions, want 1696", dirty)
	}
}
