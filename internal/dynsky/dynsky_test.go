package dynsky

import (
	"testing"
	"testing/quick"

	"neisky/internal/core"
	"neisky/internal/gen"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/rng"
)

// check compares the maintainer's skyline against a from-scratch
// recomputation of its current graph.
func check(t *testing.T, m *Maintainer, label string) {
	t.Helper()
	want := core.FilterRefineSky(m.Graph(), core.Options{})
	got := m.Skyline()
	if !core.EqualSkylines(got, want.Skyline) {
		t.Fatalf("%s: maintained %v != recomputed %v (edges %v)",
			label, got, want.Skyline, m.Graph().EdgeList())
	}
	if m.SkylineSize() != len(got) {
		t.Fatalf("%s: SkylineSize %d != |Skyline| %d", label, m.SkylineSize(), len(got))
	}
}

func TestInsertSequence(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 12; trial++ {
		n := 4 + r.Intn(12)
		m := NewEmpty(n)
		check(t, m, "empty")
		for step := 0; step < 3*n; step++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			m.AddEdge(u, v)
			check(t, m, "insert")
		}
	}
}

func TestDeleteSequence(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 10; trial++ {
		n := 4 + r.Intn(10)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < 0.5 {
					b.AddEdge(int32(u), int32(v))
				}
			}
		}
		g := b.Build()
		m := New(g)
		check(t, m, "initial")
		edges := g.EdgeList()
		r.Shuffle(permOf(len(edges)))
		for _, e := range edges {
			m.RemoveEdge(e[0], e[1])
			check(t, m, "delete")
		}
		if m.M() != 0 {
			t.Fatal("all edges should be gone")
		}
	}
}

func permOf(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

func TestMixedWorkload(t *testing.T) {
	r := rng.New(3)
	n := 20
	m := NewEmpty(n)
	for step := 0; step < 300; step++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		if m.Has(u, v) && r.Float64() < 0.5 {
			m.RemoveEdge(u, v)
		} else {
			m.AddEdge(u, v)
		}
		if step%17 == 0 {
			check(t, m, "mixed")
		}
	}
	check(t, m, "final")
}

func TestSeedFromStaticGraph(t *testing.T) {
	g := gen.PowerLaw(300, 900, 2.3, 9)
	m := New(g)
	check(t, m, "power-law seed")
	if m.N() != g.N() || m.M() != g.M() {
		t.Fatal("seed mismatch")
	}
}

func TestIdempotentOps(t *testing.T) {
	m := NewEmpty(4)
	if !m.AddEdge(0, 1) || m.AddEdge(0, 1) || m.AddEdge(1, 0) {
		t.Fatal("duplicate insert must report false")
	}
	if m.AddEdge(2, 2) {
		t.Fatal("self loop must be rejected")
	}
	if !m.RemoveEdge(0, 1) || m.RemoveEdge(0, 1) {
		t.Fatal("duplicate delete must report false")
	}
	check(t, m, "after idempotent ops")
}

func TestIsolatedTransitions(t *testing.T) {
	// Empty graph: only vertex 0 in skyline. First edge: global flip.
	m := NewEmpty(3)
	if m.SkylineSize() != 1 || !m.InSkyline(0) {
		t.Fatalf("edgeless skyline size %d", m.SkylineSize())
	}
	m.AddEdge(1, 2)
	check(t, m, "first edge")
	// Vertex 0 is now isolated next to an edge: dominated.
	if m.InSkyline(0) {
		t.Fatal("isolated vertex beside an edge must be dominated")
	}
	m.RemoveEdge(1, 2)
	check(t, m, "back to edgeless")
	if !m.InSkyline(0) || m.SkylineSize() != 1 {
		t.Fatal("edgeless skyline must return to {0}")
	}
}

func TestDominatorsValid(t *testing.T) {
	r := rng.New(5)
	n := 12
	m := NewEmpty(n)
	valid := func(label string) {
		t.Helper()
		g := m.Graph()
		d := m.Dominators()
		doms := d.Slice()
		if len(doms) != n {
			t.Fatalf("%s: %d entries for %d vertices", label, len(doms), n)
		}
		for x, w := range doms {
			x := int32(x)
			if (w == x) != m.InSkyline(x) {
				t.Fatalf("%s: entry %d for vertex %d, InSkyline %v", label, w, x, m.InSkyline(x))
			}
			if w != x && !core.Dominates(g, w, x) {
				t.Fatalf("%s: recorded dominator %d does not dominate %d (degree %d)", label, w, x, g.Degree(x))
			}
		}
	}
	valid("edgeless")
	for i := 0; i < 30; i++ {
		m.AddEdge(int32(r.Intn(n)), int32(r.Intn(n)))
	}
	valid("random")
	// Isolate vertices 0 and 1: their entries, and vertex 0's role as
	// an isolated vertex below other isolated ones, are checked too.
	for _, x := range []int32{0, 1} {
		for _, w := range append([]int32(nil), m.Neighbors(x)...) {
			m.RemoveEdge(x, w)
		}
	}
	valid("isolated")
}

func TestQuickMaintainerAgainstStatic(t *testing.T) {
	f := func(seed uint64, nRaw uint8, ops uint8) bool {
		n := int(nRaw%12) + 3
		r := rng.New(seed)
		m := NewEmpty(n)
		for i := 0; i < int(ops%60); i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if r.Float64() < 0.3 {
				m.RemoveEdge(u, v)
			} else {
				m.AddEdge(u, v)
			}
		}
		want := core.FilterRefineSky(m.Graph(), core.Options{})
		return core.EqualSkylines(m.Skyline(), want.Skyline)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestWitnessWorkFlatInN pins the locality of the witness rule: one
// 8-op batch among low-degree vertices (four inserts, then their
// deletes) does a number of pair tests and full scans that does not
// grow with n, unlike a rule that would visit a fixed fraction of the
// graph. The counts come from the obs counters a batch records.
func TestWitnessWorkFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 80k-vertex graph")
	}
	rec := obs.New()
	defer obs.Swap(obs.Swap(rec))
	measure := func(n int) (pairs, rescans int64) {
		g, _, _ := gen.PowerLaw(n, 4*n, 2.5, 29).RelabelByDegree()
		r := rng.New(30)
		var batch []Op
		for len(batch) < 4 {
			u, v := int32(n/2+r.Intn(n/2)), int32(n/2+r.Intn(n/2))
			if u != v && !g.Has(u, v) {
				batch = append(batch, Op{Add: true, U: u, V: v})
			}
		}
		for _, op := range batch[:4] {
			batch = append(batch, Op{U: op.U, V: op.V})
		}
		m := New(g)
		before := rec.Snapshot().Counters
		if applied := m.Apply(batch); applied != len(batch) {
			t.Fatalf("applied %d of %d ops", applied, len(batch))
		}
		after := rec.Snapshot().Counters
		return after["dynsky.update.pairs"] - before["dynsky.update.pairs"],
			after["dynsky.update.rescans"] - before["dynsky.update.rescans"]
	}
	pSmall, sSmall := measure(10000)
	pLarge, sLarge := measure(80000)
	t.Logf("per 8-op batch: %d pair tests and %d full scans at n=10k, %d and %d at n=80k", pSmall, sSmall, pLarge, sLarge)
	if pSmall == 0 || sSmall == 0 {
		t.Fatal("the batch recorded no work: the counters are not wired")
	}
	if pLarge >= 2*pSmall {
		t.Errorf("pair tests grow with n: %d at n=10k, %d at n=80k", pSmall, pLarge)
	}
	if sLarge >= 2*sSmall {
		t.Errorf("full scans grow with n: %d at n=10k, %d at n=80k", sSmall, sLarge)
	}
}

// TestOpsAllocateNothingWithRecordingOff pins that an op's witness
// rule and its work counters allocate nothing while obs recording is
// off: once both endpoints own a private row, inserting and deleting
// an edge between them costs zero allocations.
func TestOpsAllocateNothingWithRecordingOff(t *testing.T) {
	defer obs.Swap(obs.Swap(nil))
	m := New(gen.PowerLaw(300, 900, 2.3, 9))
	u, v := int32(7), int32(299)
	for m.Has(u, v) {
		v--
	}
	allocs := testing.AllocsPerRun(20, func() {
		if !m.AddEdge(u, v) || !m.RemoveEdge(u, v) {
			t.Fatal("op did not apply")
		}
	})
	if allocs != 0 {
		t.Errorf("an insert and a delete allocated %.0f times with recording off", allocs)
	}
	check(t, m, "after the alloc runs")
}
