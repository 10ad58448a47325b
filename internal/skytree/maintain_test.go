package skytree

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/gen"
	"neisky/internal/graph"
	"neisky/internal/rng"
)

// checkAgainstRebuild asserts the incremental index equals a
// from-scratch rebuild of the maintainer's current graph — the oracle
// property of the whole package.
func checkAgainstRebuild(t *testing.T, m *Maintainer, label string) {
	t.Helper()
	got := m.Tree()
	want := Build(m.Graph(), BuildOptions{})
	if !got.Equal(want) {
		g := m.Graph()
		for v := int32(0); v < int32(g.N()); v++ {
			if got.Layer(v) != want.Layer(v) || got.Parent(v) != want.Parent(v) {
				t.Fatalf("%s: vertex %d incremental (layer %d, parent %d) != rebuild (layer %d, parent %d); edges %v",
					label, v, got.Layer(v), got.Parent(v), want.Layer(v), want.Parent(v), g.EdgeList())
			}
		}
		t.Fatalf("%s: trees differ", label)
	}
	g := m.Graph()
	if size, want := got.SkylineSize(g), len(core.BruteForce(g).Skyline); size != want {
		t.Fatalf("%s: SkylineSize %d, brute-force skyline has %d; edges %v", label, size, want, g.EdgeList())
	}
}

// stream runs ops random updates on g, checking the oracle after every
// single update.
func stream(t *testing.T, g *graph.Graph, seed uint64, ops int, label string) {
	t.Helper()
	r := rng.New(seed)
	m := NewMaintainer(g, BuildOptions{})
	n := m.N()
	checkAgainstRebuild(t, m, label+"/initial")
	for i := 0; i < ops; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u == v {
			continue
		}
		// Bias toward inserts early, deletes late, so the stream both
		// grows and shreds structure.
		if m.rows.Has(u, v) {
			m.RemoveEdge(u, v)
		} else {
			m.AddEdge(u, v)
		}
		checkAgainstRebuild(t, m, label)
	}
}

// Stream lengths: every family gets a long stream with the per-op
// oracle. Short mode keeps CI fast; `go test -run Stream ./internal/skytree`
// runs the full 1k-op battery.
func streamLen(t *testing.T) int {
	if testing.Short() {
		return 120
	}
	return 1000
}

func TestStreamER(t *testing.T) {
	stream(t, gen.ER(48, 0.08, 101), 1, streamLen(t), "er")
}

func TestStreamBA(t *testing.T) {
	stream(t, gen.BA(48, 3, 202), 2, streamLen(t), "ba")
}

func TestStreamPowerLaw(t *testing.T) {
	stream(t, gen.PowerLaw(48, 100, 2.3, 303), 3, streamLen(t), "plaw")
}

func TestStreamFromEmpty(t *testing.T) {
	stream(t, graph.NewBuilder(32).Build(), 4, streamLen(t), "empty")
}

func TestStreamStar(t *testing.T) {
	// Star hubs make every update touch the whole graph — the worst
	// case for the locality argument.
	stream(t, gen.Star(24), 5, streamLen(t)/2, "star")
}

func TestStreamThreshold(t *testing.T) {
	// Nested neighborhoods peel into 24 layers, so an op's cascade runs
	// through many levels, which the other families (at most 4 layers)
	// never reach.
	stream(t, gen.RandomThreshold(40, 0.5, 11), 7, streamLen(t), "threshold")
}

func TestMaintainerAfterRelabel(t *testing.T) {
	// The oracle must hold on a degree-relabeled snapshot exactly as on
	// the original — the serving pipeline feeds relabeled CSRs in.
	g := gen.ER(40, 0.12, 77)
	rg, _, _ := g.RelabelByDegree()
	stream(t, rg, 6, streamLen(t)/2, "relabeled")
}

func TestAddRemoveReportChanges(t *testing.T) {
	m := NewMaintainer(gen.Path(6), BuildOptions{})
	if m.AddEdge(0, 1) {
		t.Fatal("re-adding existing edge reported as new")
	}
	if !m.AddEdge(0, 5) {
		t.Fatal("new edge not reported")
	}
	if m.AddEdge(3, 3) {
		t.Fatal("self-loop accepted")
	}
	if m.RemoveEdge(0, 4) {
		t.Fatal("removing absent edge reported")
	}
	if !m.RemoveEdge(0, 5) {
		t.Fatal("removing existing edge not reported")
	}
	checkAgainstRebuild(t, m, "report")
}

func TestApplyBatch(t *testing.T) {
	m := NewMaintainer(gen.Cycle(12), BuildOptions{})
	ops := []dynsky.Op{
		{Add: true, U: 0, V: 6},
		{Add: true, U: 0, V: 6}, // duplicate: no-op
		{Add: false, U: 0, V: 1},
		{Add: true, U: 2, V: 9},
	}
	if applied := m.Apply(ops); applied != 3 {
		t.Fatalf("applied %d, want 3", applied)
	}
	checkAgainstRebuild(t, m, "batch")
}

func TestApplyCtxCancels(t *testing.T) {
	m := NewMaintainer(gen.Cycle(16), BuildOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	applied, err := m.ApplyCtx(ctx, []dynsky.Op{{Add: true, U: 0, V: 8}})
	if applied != 0 || err == nil {
		t.Fatalf("cancelled batch: applied=%d err=%v", applied, err)
	}
	// The prefix contract: index still exact for what was applied.
	checkAgainstRebuild(t, m, "cancelled")
}

func TestNewMaintainerFromTreeRejects(t *testing.T) {
	g := gen.Path(8)
	tr := Build(g, BuildOptions{})
	tr.Truncated = true
	mustPanic(t, func() { NewMaintainerFromTree(g, tr) })
	other := Build(gen.Path(9), BuildOptions{})
	mustPanic(t, func() { NewMaintainerFromTree(g, other) })
}

func TestMaintainerFromTreeCarryOver(t *testing.T) {
	// The swap path: seed from a prior tree, mutate, oracle must hold.
	g := gen.ER(36, 0.1, 55)
	m := NewMaintainerFromTree(g, Build(g, BuildOptions{}))
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		u, v := int32(r.Intn(36)), int32(r.Intn(36))
		if u == v {
			continue
		}
		if m.rows.Has(u, v) {
			m.RemoveEdge(u, v)
		} else {
			m.AddEdge(u, v)
		}
	}
	checkAgainstRebuild(t, m, "carry-over")
}

func mustPanic(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

// churn builds a seeded update stream on g: each op either deletes an
// edge at a random vertex (so deletes are real, not misses) or inserts
// a random pair.
func churn(g *graph.Graph, ops int, seed uint64) []dynsky.Op {
	r := rng.New(seed)
	n := g.N()
	out := make([]dynsky.Op, ops)
	for i := range out {
		u := int32(r.Intn(n))
		if nb := g.Neighbors(u); len(nb) > 0 && r.Intn(2) == 0 {
			out[i] = dynsky.Op{U: u, V: nb[r.Intn(len(nb))]}
		} else {
			out[i] = dynsky.Op{Add: true, U: u, V: int32(r.Intn(n))}
		}
	}
	return out
}

// TestStreamDeterministicAcrossGOMAXPROCS applies one seeded 1k-op
// stream under GOMAXPROCS 1 and 2. The graph is past the engine's
// parallel cutoff, so seeding and every level of the initial build run
// sharded; outputs must not depend on the worker count or on any
// iteration order.
func TestStreamDeterministicAcrossGOMAXPROCS(t *testing.T) {
	g := gen.PowerLaw(8000, 32000, 3.0, 17)
	ops := churn(g, 1000, 18)
	type outcome struct {
		sky   []int32
		doms  []int32
		edges [][2]int32
		tree  *Tree
	}
	run := func(procs int) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := NewMaintainer(g, BuildOptions{})
		m.Apply(ops)
		d := dynsky.New(g)
		d.Apply(ops)
		doms := d.Dominators()
		return outcome{d.Skyline(), doms.Slice(), m.Graph().EdgeList(), m.Tree()}
	}
	a, b := run(1), run(2)
	switch {
	case !slices.Equal(a.sky, b.sky):
		t.Fatal("Skyline differs between GOMAXPROCS 1 and 2")
	case !slices.Equal(a.doms, b.doms):
		t.Fatal("Dominators differ between GOMAXPROCS 1 and 2")
	case !slices.Equal(a.edges, b.edges):
		t.Fatal("Graph().EdgeList() differs between GOMAXPROCS 1 and 2")
	case !a.tree.Equal(b.tree):
		t.Fatal("layers or parents differ between GOMAXPROCS 1 and 2")
	}
}

// TestBatchSwapAllocsFlatInN pins the memory shape of a batch swap: a
// maintainer seeded on an n-vertex epoch, one 8-op batch and the
// published CSR cost a number of allocations independent of n (dense
// arrays and touched rows, never one object per vertex). Each run seeds
// on the previous run's output, as consecutive swaps do, so the epoch
// graph's lazily built indexes are paid every time.
func TestBatchSwapAllocsFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 80k-vertex graph")
	}
	ctx := context.Background()
	measure := func(n int) (dyn, tree float64) {
		g, _, _ := gen.PowerLaw(n, 4*n, 2.5, 29).RelabelByDegree()
		// Four inserts among low-degree vertices, then their deletes:
		// every op applies, and each run ends on the graph it started
		// from, so the tree stays valid for the next run.
		r := rng.New(30)
		var batch []dynsky.Op
		for len(batch) < 4 {
			u, v := int32(n/2+r.Intn(n/2)), int32(n/2+r.Intn(n/2))
			if u != v && !g.Has(u, v) {
				batch = append(batch, dynsky.Op{Add: true, U: u, V: v})
			}
		}
		for _, op := range batch[:4] {
			batch = append(batch, dynsky.Op{U: op.U, V: op.V})
		}
		cur := g
		dyn = testing.AllocsPerRun(3, func() {
			m := dynsky.New(cur)
			if _, applied, _ := m.ApplyPrefixCtx(ctx, batch); applied != len(batch) {
				t.Fatalf("applied %d of %d ops", applied, len(batch))
			}
			cur = m.Graph()
		})
		tr := Build(g, BuildOptions{})
		tree = testing.AllocsPerRun(3, func() {
			m := NewMaintainerFromTree(cur, tr)
			if _, applied, _ := m.ApplyPrefixCtx(ctx, batch); applied != len(batch) {
				t.Fatalf("applied %d of %d ops", applied, len(batch))
			}
			cur = m.Graph()
		})
		return dyn, tree
	}
	dSmall, tSmall := measure(10000)
	dLarge, tLarge := measure(80000)
	t.Logf("allocs per swap: dynsky %.0f at n=10k, %.0f at n=80k; skytree %.0f, %.0f", dSmall, dLarge, tSmall, tLarge)
	if dLarge >= 2*dSmall {
		t.Errorf("dynsky swap allocations grow with n: %.0f at n=10k, %.0f at n=80k", dSmall, dLarge)
	}
	if tLarge >= 2*tSmall {
		t.Errorf("skytree swap allocations grow with n: %.0f at n=10k, %.0f at n=80k", tSmall, tLarge)
	}
}

// TestBatchSwapBytesFlatInN pins the bytes of a batch swap: one carried
// 8-op swap on each path — the status carry (dynsky.Seeded,
// ApplyPrefixCtx, Graph, Dominators) and the tree carry
// (NewMaintainerFromTree, ApplyPrefixCtx, Graph, Tree) — allocates
// under twice as many bytes at n=80k as at n=10k. Each insert joins two
// vertices of one 512-vertex range (one CSR block, inside one page of
// every paged array), and the four ranges sit at the same relative
// positions, among the low degrees, in both graphs. So both sizes
// rebuild four blocks and copy their pages, and only what grows with n
// can tell the sizes apart: page tables, the block table, the degree
// histogram, scratch spread over the ID range, and any n-entry copy.
func TestBatchSwapBytesFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an 80k-vertex graph")
	}
	ctx := context.Background()
	measure := func(n int) (status, tree uint64) {
		g, _, _ := gen.PowerLaw(n, 4*n, 2.5, 29).RelabelByDegree()
		r := rng.New(30)
		var batch []dynsky.Op
		for _, at := range []float64{0.55, 0.65, 0.75, 0.85} {
			const span = 512
			lo := int32(float64(n)*at) &^ (span - 1)
			for {
				u, v := lo+int32(r.Intn(span)), lo+int32(r.Intn(span))
				if u != v && !g.Has(u, v) {
					batch = append(batch, dynsky.Op{Add: true, U: u, V: v})
					break
				}
			}
		}
		for _, op := range batch[:4] {
			batch = append(batch, dynsky.Op{U: op.U, V: op.V})
		}
		apply := func(m interface {
			ApplyPrefixCtx(context.Context, []dynsky.Op) (int, int, error)
		}) {
			if _, applied, _ := m.ApplyPrefixCtx(ctx, batch); applied != len(batch) {
				t.Fatalf("applied %d of %d ops", applied, len(batch))
			}
		}
		d := dynsky.New(g).Dominators()
		status = medianBytes(5, func() {
			m := dynsky.Seeded(g, d)
			apply(m)
			m.Graph()
			m.Dominators()
		})
		tr := Build(g, BuildOptions{})
		tree = medianBytes(5, func() {
			m := NewMaintainerFromTree(g, tr)
			apply(m)
			m.Graph()
			m.Tree()
		})
		return status, tree
	}
	sSmall, tSmall := measure(10000)
	sLarge, tLarge := measure(80000)
	t.Logf("bytes per swap: status carry %d at n=10k, %d at n=80k; tree carry %d, %d", sSmall, sLarge, tSmall, tLarge)
	if sLarge >= 2*sSmall {
		t.Errorf("status carry bytes grow with n: %d at n=10k, %d at n=80k", sSmall, sLarge)
	}
	if tLarge >= 2*tSmall {
		t.Errorf("tree carry bytes grow with n: %d at n=10k, %d at n=80k", tSmall, tLarge)
	}
}
