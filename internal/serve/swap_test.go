package serve

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/gen"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/rng"
	"neisky/internal/testleak"
	"neisky/internal/wal"
)

// edgeModel is a test-local edge set on n vertices, mirrored batch by
// batch against the daemon.
type edgeModel struct {
	n     int
	edges map[[2]int32]bool
}

func newEdgeModel(g *graph.Graph) *edgeModel {
	m := &edgeModel{n: g.N(), edges: map[[2]int32]bool{}}
	for _, e := range g.EdgeList() {
		m.edges[e] = true
	}
	return m
}

func (m *edgeModel) apply(ops []dynsky.Op) {
	for _, op := range ops {
		e := [2]int32{min(op.U, op.V), max(op.U, op.V)}
		if op.Add {
			m.edges[e] = true
		} else {
			delete(m.edges, e)
		}
	}
}

// list returns the edges in ascending order.
func (m *edgeModel) list() [][2]int32 {
	out := make([][2]int32, 0, len(m.edges))
	for e := range m.edges {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b [2]int32) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return out
}

// isolate returns a batch deleting every edge at x.
func (m *edgeModel) isolate(x int32) []dynsky.Op {
	var ops []dynsky.Op
	for _, e := range m.list() {
		if e[0] == x || e[1] == x {
			ops = append(ops, dynsky.Op{U: e[0], V: e[1]})
		}
	}
	return ops
}

// clearAll returns a batch deleting every edge.
func (m *edgeModel) clearAll() []dynsky.Op {
	var ops []dynsky.Op
	for _, e := range m.list() {
		ops = append(ops, dynsky.Op{U: e[0], V: e[1]})
	}
	return ops
}

func (m *edgeModel) skylineSize() int {
	return len(core.BruteForce(graph.FromEdges(m.n, m.list())).Skyline)
}

// TestSwapSkylineSizeMatchesOracle checks the value of every batch
// swap's skyline_size against brute force on a mirrored edge set, on
// both swap branches: without an index (dynsky's maintained O array,
// each swap after the first seeded from the array its predecessor
// published, which must equal brute force's too) and after a
// /v1/skyline/layers prewarm (derived from the carried layer 0). The
// series includes a batch that isolates a vertex, one that removes
// every edge (skyline {0}), and the first inserts after it.
func TestSwapSkylineSizeMatchesOracle(t *testing.T) {
	for _, carried := range []bool{false, true} {
		t.Run(fmt.Sprintf("carried=%v", carried), func(t *testing.T) {
			g := gen.ER(16, 0.3, 5)
			srv, ts := newTestServer(t, g, Options{})
			if carried {
				if code, body := get(t, ts, "/v1/skyline/layers"); code != http.StatusOK {
					t.Fatalf("prewarm: status %d: %v", code, body)
				}
			}
			model := newEdgeModel(g)
			r := rng.New(83)
			var batches [][]dynsky.Op
			for i := 0; i < 10; i++ {
				batch := make([]dynsky.Op, 4)
				for j := range batch {
					u := int32(r.Intn(model.n))
					v := (u + 1 + int32(r.Intn(model.n-1))) % int32(model.n)
					batch[j] = dynsky.Op{Add: r.Intn(2) == 0, U: u, V: v}
				}
				batches = append(batches, batch)
			}
			swap := func(label string, batch []dynsky.Op) {
				t.Helper()
				code, body := post(t, ts, "/v1/snapshot/swap", opsBody(batch))
				if code != http.StatusOK {
					t.Fatalf("%s: status %d: %v", label, code, body)
				}
				model.apply(batch)
				want := model.skylineSize()
				if got, _ := body["skyline_size"].(float64); int(got) != want {
					t.Fatalf("%s: skyline_size %v, brute force %d", label, body["skyline_size"], want)
				}
				pin := srv.Store().Acquire()
				hasTree := pin.Snapshot().TreeIfBuilt() != nil
				pin.Release()
				if hasTree != carried {
					t.Fatalf("%s: new epoch carries an index: %v, want %v", label, hasTree, carried)
				}
				if !carried {
					pin := srv.Store().Acquire()
					got := pin.Snapshot().sky.dom.Slice()
					pin.Release()
					if want := core.BruteForce(graph.FromEdges(model.n, model.list())).Dominator; !slices.Equal(got, want) {
						t.Fatalf("%s: carried O array %v, brute force %v", label, got, want)
					}
				}
			}
			for i, b := range batches {
				swap(fmt.Sprintf("batch %d", i), b)
			}
			swap("isolate 3", model.isolate(3))
			swap("remove every edge", model.clearAll())
			if model.skylineSize() != 1 {
				t.Fatal("edgeless oracle skyline is not {0}")
			}
			swap("first inserts", []dynsky.Op{{Add: true, U: 5, V: 9}, {Add: true, U: 9, V: 12}})
		})
	}
}

// TestCarriedSwapAndRecoveryRunNoSkylineEngine pins which swaps and
// recoveries run a skyline engine, by counting the engines' obs spans
// (core.filter, core.refine, core.shard). A swap that carries the
// layered index and an OpenDurable recovery of a non-empty tail run
// none; a swap without an index seeds dynsky with one run, which shows
// the probe sees the engine when it runs.
func TestCarriedSwapAndRecoveryRunNoSkylineEngine(t *testing.T) {
	defer testleak.Check(t)()
	rec := obs.New()
	defer obs.Swap(obs.Swap(rec))
	swap := func(ts *httptest.Server, body string) {
		t.Helper()
		if code, resp := post(t, ts, "/v1/snapshot/swap", body); code != http.StatusOK {
			t.Fatalf("swap: status %d: %v", code, resp)
		}
	}

	dir := t.TempDir()
	srv, ts, _ := newDurableServer(t, dir, testGraph(), Options{})
	before := engineSpans(rec)
	swap(ts, `{"ops":[{"add":true,"u":0,"v":2}]}`)
	if engineSpans(rec) == before {
		t.Fatal("no-index swap recorded no skyline engine span")
	}

	if code, body := get(t, ts, "/v1/skyline/layers"); code != http.StatusOK {
		t.Fatalf("prewarm: status %d: %v", code, body)
	}
	before = engineSpans(rec)
	swap(ts, `{"ops":[{"add":true,"u":1,"v":3},{"add":false,"u":0,"v":2}]}`)
	swap(ts, `{"ops":[{"add":true,"u":4,"v":7}]}`)
	if got := engineSpans(rec) - before; got != 0 {
		t.Fatalf("carried-index swaps recorded %d skyline engine spans, want 0", got)
	}
	shutdown(ts, srv)

	before = engineSpans(rec)
	_, l, st, err := OpenDurable(dir, nil, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	defer l.Close()
	if !st.Recovered || st.ReplayedOps == 0 {
		t.Fatalf("recovery stats %+v, want a non-empty replayed tail", st)
	}
	if got := engineSpans(rec) - before; got != 0 {
		t.Fatalf("recovery recorded %d skyline engine spans, want 0", got)
	}
}

// engineSpans counts the skyline engines' obs spans rec has recorded.
func engineSpans(rec *obs.Recorder) int64 {
	s := rec.Snapshot()
	return s.Timers["core.filter"].Count + s.Timers["core.refine"].Count + s.Timers["core.shard"].Count
}

// TestNoIndexSwapsSeedOncePerLineage pins which batch swaps without an
// index run a skyline engine. A lineage starts at a load: startup, a
// file swap or OpenDurable recovery. Its first batch swap seeds dynsky
// with one engine run; each later one continues from the status the
// swap before it published, so it runs none.
func TestNoIndexSwapsSeedOncePerLineage(t *testing.T) {
	t.Cleanup(testleak.Check(t)) // runs after the servers' cleanups
	rec := obs.New()
	defer obs.Swap(obs.Swap(rec))
	lineage := func(label string, ts *httptest.Server) {
		t.Helper()
		for i, body := range []string{
			`{"ops":[{"add":true,"u":0,"v":2}]}`,
			`{"ops":[{"add":true,"u":1,"v":3},{"add":false,"u":0,"v":2}]}`,
			`{"ops":[{"add":true,"u":4,"v":7}]}`,
		} {
			before := engineSpans(rec)
			if code, resp := post(t, ts, "/v1/snapshot/swap", body); code != http.StatusOK {
				t.Fatalf("%s, batch swap %d: status %d: %v", label, i+1, code, resp)
			}
			if ran, want := engineSpans(rec) > before, i == 0; ran != want {
				t.Fatalf("%s, batch swap %d: ran a skyline engine: %v, want %v", label, i+1, ran, want)
			}
		}
	}

	dir := t.TempDir()
	srv, ts, _ := newDurableServer(t, dir, testGraph(), Options{})
	lineage("after startup", ts)

	// A graph of another size: a status carried across the load would
	// not even fit it.
	path := filepath.Join(t.TempDir(), "next.nsb2")
	if err := gen.PowerLaw(80, 200, 2.5, 9).WriteBinaryFile(path, 0); err != nil {
		t.Fatal(err)
	}
	if code, resp := post(t, ts, "/v1/snapshot/swap", fmt.Sprintf(`{"path":%q}`, path)); code != http.StatusOK {
		t.Fatalf("file swap: status %d: %v", code, resp)
	}
	lineage("after a file swap", ts)
	shutdown(ts, srv)

	_, ts, st := newDurableServer(t, dir, nil, Options{})
	if !st.Recovered {
		t.Fatalf("recovery stats %+v, want a recovery", st)
	}
	lineage("after recovery", ts)
}

// TestSkylineReadSeedsFirstSwap pins that reads and a lineage's first
// batch swap share one engine run: after a /v1/skyline read has built
// the epoch's skyline state, the first no-index swap seeds dynsky from
// it and runs no skyline engine.
func TestSkylineReadSeedsFirstSwap(t *testing.T) {
	rec := obs.New()
	defer obs.Swap(obs.Swap(rec))
	_, ts := newTestServer(t, testGraph(), Options{})
	before := engineSpans(rec)
	if code, body := get(t, ts, "/v1/skyline"); code != http.StatusOK {
		t.Fatalf("skyline read: status %d: %v", code, body)
	}
	if engineSpans(rec) == before {
		t.Fatal("the first skyline read of a fresh epoch recorded no engine span")
	}
	before = engineSpans(rec)
	if code, body := post(t, ts, "/v1/snapshot/swap", `{"ops":[{"add":true,"u":0,"v":2}]}`); code != http.StatusOK {
		t.Fatalf("swap: status %d: %v", code, body)
	}
	if got := engineSpans(rec) - before; got != 0 {
		t.Fatalf("the first swap after a skyline read recorded %d engine spans, want 0", got)
	}
}

// TestSkylineStateMatchesBruteForce checks the epoch's O array and |R|
// against core.BruteForce on small graphs, isolated vertices included,
// from each of its three sources: a batch swap's published array, a
// built index's layer 0 plus the smallest-dominator scan, and an engine
// run plus that scan.
func TestSkylineStateMatchesBruteForce(t *testing.T) {
	r := rng.New(61)
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(30)
		var edges [][2]int32
		for i := r.Intn(3 * n); i > 0; i-- {
			edges = append(edges, [2]int32{int32(r.Intn(n)), int32(r.Intn(n))})
		}
		g := graph.FromEdges(n, edges)
		check := func(source string, snap *Snapshot) {
			t.Helper()
			st := snap.skyline(context.Background())
			want := core.BruteForce(snap.Graph)
			if got := st.dom.Slice(); st.err != nil || !slices.Equal(got, want.Dominator) {
				t.Fatalf("trial %d, %s: O array %v (err %v), brute force %v", trial, source, got, st.err, want.Dominator)
			}
			if st.dom.SkylineSize() != len(want.Skyline) || !slices.Equal(st.skyline(), want.Skyline) {
				t.Fatalf("trial %d, %s: skyline %v, brute force %v", trial, source, st.skyline(), want.Skyline)
			}
		}
		check("engine", &Snapshot{Graph: g})
		indexed := &Snapshot{Graph: g}
		indexed.Tree(context.Background())
		check("index", indexed)

		srv, ts := newTestServer(t, g, Options{})
		if n > 1 {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v {
				v = (u + 1) % int32(n)
			}
			body := fmt.Sprintf(`{"ops":[{"add":%v,"u":%d,"v":%d}]}`, r.Intn(2) == 0, u, v)
			if code, resp := post(t, ts, "/v1/snapshot/swap", body); code != http.StatusOK {
				t.Fatalf("swap: status %d: %v", code, resp)
			}
		}
		pin := srv.Store().Acquire()
		if n > 1 && pin.Snapshot().skylineIfBuilt() == nil {
			t.Fatal("a batch swap without an index published no skyline state")
		}
		check("swap", pin.Snapshot())
		pin.Release()
	}
}

// TestWarmEpochAnswersBudgetedReads pins that skyline reads of a warm
// epoch are lookups: once the state and the k=1 clique are built, a
// 1-unit budget truncates none of /v1/skyline, /v1/dominators and
// /v1/clique, and each answers as it did without a budget.
func TestWarmEpochAnswersBudgetedReads(t *testing.T) {
	_, ts := newTestServer(t, bigGraph(), Options{})
	for _, path := range []string{"/v1/skyline", "/v1/dominators?v=0,1,2,2999", "/v1/clique"} {
		code, warm := get(t, ts, path)
		if code != http.StatusOK || warm["truncated"] != false {
			t.Fatalf("%s: status %d: %v", path, code, warm)
		}
		sep := "?"
		if strings.Contains(path, "?") {
			sep = "&"
		}
		code, body := get(t, ts, path+sep+"budget=1")
		if code != http.StatusOK || body["truncated"] != false {
			t.Fatalf("%s?budget=1 on a warm epoch: status %d: %v", path, code, body)
		}
		for _, key := range []string{"skyline", "skyline_size", "dominators", "clique", "size"} {
			if fmt.Sprint(body[key]) != fmt.Sprint(warm[key]) {
				t.Fatalf("%s?budget=1: %s %v, unbudgeted %v", path, key, body[key], warm[key])
			}
		}
	}
}
