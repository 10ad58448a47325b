package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neisky/internal/core"
	"neisky/internal/gen"
	"neisky/internal/graph"
	"neisky/internal/testleak"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata golden files from the current output")

// testGraph is the fixture every e2e test queries: a deterministic
// power-law graph small enough for the oracle but rich enough that the
// skyline, candidate set, and cliques are all non-trivial.
func testGraph() *graph.Graph { return gen.PowerLaw(60, 150, 2.5, 7) }

// bigGraph is large enough that the engines' checkpoints fire, so
// budget/deadline truncation is observable.
func bigGraph() *graph.Graph { return gen.PowerLaw(3000, 12000, 2.5, 11) }

func newTestServer(t *testing.T, g *graph.Graph, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(&Snapshot{Graph: g, Name: "test"}, opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// fetch sends one request and decodes the JSON body (any status). It
// reports failures as errors, so goroutines other than the test's own
// can call it.
func fetch(ts *httptest.Server, method, path, body string) (int, map[string]any, error) {
	req, err := http.NewRequest(method, ts.URL+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if method == http.MethodPost {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, nil, fmt.Errorf("%s %s: bad JSON: %v", method, path, err)
	}
	return resp.StatusCode, out, nil
}

// get fetches path and decodes the JSON body (any status).
func get(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	code, body, err := fetch(ts, http.MethodGet, path, "")
	if err != nil {
		t.Fatal(err)
	}
	return code, body
}

func post(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	code, out, err := fetch(ts, http.MethodPost, path, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

func ids(v any) []int32 {
	arr, _ := v.([]any)
	out := make([]int32, len(arr))
	for i, x := range arr {
		out[i] = int32(x.(float64))
	}
	return out
}

// readEndpoint is one valid request to a read endpoint.
type readEndpoint struct{ method, path, body string }

// readEndpoints covers the seven /v1 read endpoints, for the tests that
// pin the read skeleton on every one of them.
var readEndpoints = []readEndpoint{
	{http.MethodGet, "/v1/skyline", ""},
	{http.MethodGet, "/v1/skyline/layers", ""},
	{http.MethodPost, "/v1/skyline/subset", `{"v":[0,1,2]}`},
	{http.MethodGet, "/v1/skyline/explain?v=1", ""},
	{http.MethodGet, "/v1/centrality/group?k=2", ""},
	{http.MethodGet, "/v1/clique", ""},
	{http.MethodGet, "/v1/dominators?v=0,1", ""},
}

// send sends e's request with the given method.
func (e readEndpoint) send(t *testing.T, ts *httptest.Server, method string) (int, map[string]any) {
	t.Helper()
	code, body, err := fetch(ts, method, e.path, e.body)
	if err != nil {
		t.Fatal(err)
	}
	return code, body
}

func TestSkylineEndpointMatchesOracle(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	want := core.BruteForce(g).Skyline

	code, body := get(t, ts, "/v1/skyline")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	got := ids(body["skyline"])
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("skyline %v, want %v", got, want)
	}
	if body["truncated"] != false {
		t.Fatalf("unexpected truncation: %v", body)
	}
	if int(body["skyline_size"].(float64)) != len(want) {
		t.Fatalf("skyline_size %v, want %d", body["skyline_size"], len(want))
	}
	if int(body["epoch"].(float64)) != 1 {
		t.Fatalf("epoch %v, want 1", body["epoch"])
	}
}

func TestSkylineLimitCapsListNotSize(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	want := core.BruteForce(g).Skyline
	if len(want) < 3 {
		t.Skip("fixture skyline too small for a limit test")
	}
	code, body := get(t, ts, "/v1/skyline?limit=2")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := len(ids(body["skyline"])); got != 2 {
		t.Fatalf("limited list has %d entries, want 2", got)
	}
	if int(body["skyline_size"].(float64)) != len(want) {
		t.Fatalf("skyline_size %v, want full %d", body["skyline_size"], len(want))
	}
}

func TestDominatorsEndpointConsistent(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	code, body := get(t, ts, "/v1/dominators?v=0,1,2,3,4,5")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	entries := body["dominators"].([]any)
	if len(entries) != 6 {
		t.Fatalf("%d entries, want 6", len(entries))
	}
	for _, e := range entries {
		m := e.(map[string]any)
		v := int32(m["v"].(float64))
		d := int32(m["dominator"].(float64))
		in := m["in_skyline"].(bool)
		if in != (v == d) {
			t.Fatalf("vertex %d: in_skyline=%v but dominator=%d", v, in, d)
		}
		if !in && !core.Dominates(g, d, v) {
			t.Fatalf("vertex %d: claimed dominator %d does not dominate it", v, d)
		}
	}
}

func TestCentralityAndCliqueEndpoints(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})

	code, body := get(t, ts, "/v1/centrality/group?k=3&measure=harmonic")
	if code != http.StatusOK {
		t.Fatalf("centrality status %d: %v", code, body)
	}
	if got := len(ids(body["group"])); got != 3 {
		t.Fatalf("group size %d, want 3", got)
	}
	if body["value"].(float64) <= 0 {
		t.Fatalf("non-positive group value: %v", body["value"])
	}

	code, body = get(t, ts, "/v1/clique")
	if code != http.StatusOK {
		t.Fatalf("clique status %d: %v", code, body)
	}
	cl := ids(body["clique"])
	if len(cl) == 0 || int(body["size"].(float64)) != len(cl) {
		t.Fatalf("bad clique payload: %v", body)
	}
	for i, u := range cl { // a clique must be fully connected
		for _, v := range cl[i+1:] {
			if !g.Has(u, v) {
				t.Fatalf("returned set is not a clique: %d-%d missing", u, v)
			}
		}
	}

	code, body = get(t, ts, "/v1/clique?k=3")
	if code != http.StatusOK {
		t.Fatalf("topk status %d: %v", code, body)
	}
	if _, ok := body["cliques"]; !ok {
		t.Fatalf("k=3 response missing cliques: %v", body)
	}
}

func TestSwapPublishesNewEpochAndSkylineFollows(t *testing.T) {
	g := testGraph()
	srv, ts := newTestServer(t, g, Options{})

	// Pick an edge to add that does not exist yet.
	var u, v int32 = -1, -1
	for a := int32(0); a < int32(g.N()) && u < 0; a++ {
		for b := a + 1; b < int32(g.N()); b++ {
			if !g.Has(a, b) {
				u, v = a, b
				break
			}
		}
	}
	code, body := post(t, ts, "/v1/snapshot/swap",
		fmt.Sprintf(`{"ops":[{"add":true,"u":%d,"v":%d}]}`, u, v))
	if code != http.StatusOK {
		t.Fatalf("swap status %d: %v", code, body)
	}
	if int(body["epoch"].(float64)) != 2 || int(body["applied"].(float64)) != 1 {
		t.Fatalf("swap response: %v", body)
	}
	if int(body["m"].(float64)) != g.M()+1 {
		t.Fatalf("post-swap m = %v, want %d", body["m"], g.M()+1)
	}

	// Queries now answer from epoch 2, and the skyline matches a fresh
	// computation on the updated graph.
	g2 := graph.FromEdges(g.N(), append(g.EdgeList(), [2]int32{u, v}))
	want := core.BruteForce(g2).Skyline
	code, body = get(t, ts, "/v1/skyline")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if int(body["epoch"].(float64)) != 2 {
		t.Fatalf("queries still on epoch %v after swap", body["epoch"])
	}
	if got := ids(body["skyline"]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-swap skyline %v, want %v", got, want)
	}
	if got := srv.Store().Swaps(); got != 1 {
		t.Fatalf("store swaps = %d, want 1", got)
	}
}

func TestSwapFromFile(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})

	g2 := gen.Clique(10)
	path := filepath.Join(t.TempDir(), "next.nsb2")
	var buf bytes.Buffer
	if err := g2.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, body := post(t, ts, "/v1/snapshot/swap", fmt.Sprintf(`{"path":%q}`, path))
	if code != http.StatusOK {
		t.Fatalf("swap status %d: %v", code, body)
	}
	if int(body["n"].(float64)) != 10 || int(body["epoch"].(float64)) != 2 {
		t.Fatalf("file swap response: %v", body)
	}
}

// TestFileSwapTakesSwapLock pins that a file swap publishes under
// swapMu, WAL or not. Without the lock, a file swap that lands between
// a batch swap's pin and its publish is overwritten by a batch built
// from the older graph, although its client got a 200.
func TestFileSwapTakesSwapLock(t *testing.T) {
	srv, ts := newTestServer(t, testGraph(), Options{})
	path := filepath.Join(t.TempDir(), "next.nsb2")
	if err := gen.Clique(10).WriteBinaryFile(path, 0); err != nil {
		t.Fatal(err)
	}

	srv.swapMu.Lock()
	codes := make(chan int, 1)
	go func() {
		code, _, _ := fetch(ts, http.MethodPost, "/v1/snapshot/swap", fmt.Sprintf(`{"path":%q}`, path))
		codes <- code
	}()
	// The file loads before the lock is taken; give the request time to
	// get there, and watch that nothing is published meanwhile.
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		if e := srv.Store().CurrentEpoch(); e != 1 {
			srv.swapMu.Unlock()
			t.Fatalf("file swap published epoch %d while swapMu was held", e)
		}
		time.Sleep(5 * time.Millisecond)
	}
	srv.swapMu.Unlock()
	if code := <-codes; code != http.StatusOK {
		t.Fatalf("file swap status %d after the lock was released", code)
	}
	if e := srv.Store().CurrentEpoch(); e != 2 {
		t.Fatalf("epoch %d after the file swap, want 2", e)
	}
}

// TestBatchSwapsOutliveMmapSeed pins the lifetime rule of batch swaps
// on an mmap-backed epoch: the maintainer reads the seed's mapping only
// until its Graph() returns, and every published batch epoch owns its
// storage — even one whose batch changed nothing — so both stay
// readable after the seed is unmapped.
func TestBatchSwapsOutliveMmapSeed(t *testing.T) {
	g := testGraph()
	seedPath := filepath.Join(t.TempDir(), "seed.nsb2")
	if err := g.WriteBinaryFile(seedPath, 0); err != nil {
		t.Fatal(err)
	}
	snap, err := SnapshotFromFile(seedPath, true)
	if err != nil {
		t.Fatal(err)
	}
	mapped := snap.Closer.(*graph.Mapped)
	if !mapped.Mmapped() {
		t.Skip("no mmap support: the snapshot was heap-loaded")
	}
	nextPath := filepath.Join(t.TempDir(), "next.nsb2")
	if err := gen.Clique(10).WriteBinaryFile(nextPath, 0); err != nil {
		t.Fatal(err)
	}
	srv := New(snap, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})

	// An in-flight reader keeps the seed epoch mapped across the swaps.
	seedPin := srv.Store().Acquire()
	swapOps := func(ops string, wantApplied int) *Pin {
		t.Helper()
		code, body := post(t, ts, "/v1/snapshot/swap", `{"ops":[`+ops+`]}`)
		if code != http.StatusOK || int(body["applied"].(float64)) != wantApplied {
			t.Fatalf("swap %s: status %d, body %v", ops, code, body)
		}
		return srv.Store().Acquire()
	}
	edges := g.EdgeList()
	var dup []string
	for _, e := range edges[:4] {
		dup = append(dup, fmt.Sprintf(`{"add":true,"u":%d,"v":%d}`, e[0], e[1]))
	}
	pinDup := swapOps(strings.Join(dup, ","), 0)
	var add [2]int32
	for v := int32(1); v < int32(g.N()); v++ {
		if !g.Has(0, v) {
			add = [2]int32{0, v}
			break
		}
	}
	pinReal := swapOps(fmt.Sprintf(`{"add":true,"u":%d,"v":%d},{"add":false,"u":%d,"v":%d}`,
		add[0], add[1], edges[0][0], edges[0][1]), 2)
	wantReal := graph.FromEdges(g.N(), append(edges[1:], add))

	// Readers walk both batch epochs while a file swap retires them and
	// the seed's last pin drops, which unmaps it.
	check := func(pin *Pin, want *graph.Graph) {
		got := pin.Graph()
		if fmt.Sprint(got.EdgeList()) != fmt.Sprint(want.EdgeList()) {
			t.Errorf("epoch %d: edges diverge from its batch", pin.Epoch())
			return
		}
		if !core.EqualSkylines(core.BruteForce(got).Skyline, core.BruteForce(want).Skyline) {
			t.Errorf("epoch %d: skyline diverges from its batch", pin.Epoch())
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				check(pinDup, g)
				check(pinReal, wantReal)
			}
		}()
	}
	if code, body := post(t, ts, "/v1/snapshot/swap", fmt.Sprintf(`{"path":%q}`, nextPath)); code != http.StatusOK {
		t.Fatalf("file swap status %d: %v", code, body)
	}
	seedPin.Release()
	if mapped.Mmapped() {
		t.Fatal("seed epoch still mapped after its last pin dropped")
	}
	wg.Wait()
	check(pinDup, g)
	check(pinReal, wantReal)
	pinDup.Release()
	pinReal.Release()
}

func TestSwapValidation(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	for name, body := range map[string]string{
		"malformed":     `{"ops": [{`,
		"empty":         `{}`,
		"both":          `{"path":"x","ops":[{"add":true,"u":0,"v":1}]}`,
		"out-of-range":  fmt.Sprintf(`{"ops":[{"add":true,"u":0,"v":%d}]}`, g.N()),
		"self-loop":     `{"ops":[{"add":true,"u":3,"v":3}]}`,
		"negative":      `{"ops":[{"add":true,"u":-1,"v":2}]}`,
		"unknown-field": `{"nope":1}`,
	} {
		code, resp := post(t, ts, "/v1/snapshot/swap", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%v), want 400", name, code, resp)
		}
	}
}

func TestBadQueryParamsRejected(t *testing.T) {
	_, ts := newTestServer(t, testGraph(), Options{})
	for name, path := range map[string]string{
		"bad timeout":      "/v1/skyline?timeout=yesterday",
		"negative timeout": "/v1/skyline?timeout=-5s",
		"bad budget":       "/v1/skyline?budget=lots",
		"negative budget":  "/v1/skyline?budget=-3",
		"bad limit":        "/v1/skyline?limit=-1",
		"missing k":        "/v1/centrality/group",
		"negative k":       "/v1/centrality/group?k=-2",
		"bad measure":      "/v1/centrality/group?k=2&measure=fame",
		"bad clique k":     "/v1/clique?k=zero",
		"bad vertex":       "/v1/dominators?v=1,boom",
		"huge vertex":      "/v1/dominators?v=999999999",
	} {
		code, body := get(t, ts, path)
		if code != http.StatusBadRequest {
			t.Errorf("%s (%s): status %d (%v), want 400", name, path, code, body)
		}
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: error body missing: %v", name, body)
		}
	}
}

// TestEngineParamsIgnored pins that the engine-picking parameters the
// daemon no longer reads (?algo, ?workers, ?shards) are ignored like any
// other unknown parameter: a client that still sends them, even with
// values the old parsers rejected, gets the default answer.
func TestEngineParamsIgnored(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	want := fmt.Sprint(core.BruteForce(g).Skyline)
	for _, path := range []string{
		"/v1/skyline?algo=base&shards=4",
		"/v1/skyline?algo=quantum",
		"/v1/skyline?workers=-1&shards=nope",
	} {
		code, body := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", path, code, body)
		}
		if got := fmt.Sprint(ids(body["skyline"])); got != want {
			t.Fatalf("%s: skyline %s, want %s", path, got, want)
		}
	}

	_, def := get(t, ts, "/v1/centrality/group?k=2")
	code, body := get(t, ts, "/v1/centrality/group?k=2&workers=zero")
	if code != http.StatusOK || fmt.Sprint(body["group"]) != fmt.Sprint(def["group"]) {
		t.Fatalf("centrality with ?workers: status %d, group %v, want %v", code, body["group"], def["group"])
	}

	_, def = post(t, ts, "/v1/skyline/subset", `{"v":[0,1,2,3,4,5]}`)
	code, body = post(t, ts, "/v1/skyline/subset?algo=bogus", `{"v":[0,1,2,3,4,5]}`)
	if code != http.StatusOK || fmt.Sprint(body["skyline"]) != fmt.Sprint(def["skyline"]) {
		t.Fatalf("subset with ?algo: status %d, skyline %v, want %v", code, body["skyline"], def["skyline"])
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, testGraph(), Options{})
	if code, _ := post(t, ts, "/v1/skyline", "{}"); code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/skyline: status %d, want 405", code)
	}
	if code, _ := get(t, ts, "/v1/snapshot/swap"); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/snapshot/swap: status %d, want 405", code)
	}
	for _, e := range readEndpoints {
		wrong := http.MethodPost
		if e.method == http.MethodPost {
			wrong = http.MethodGet
		}
		if code, _ := e.send(t, ts, wrong); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", wrong, e.path, code)
		}
	}
}

// TestDeadlineExceededReturnsPartial: a query whose deadline has
// already passed still answers 200 with a truncated (superset) skyline
// and the "timeout" cause — the serving face of the anytime contract.
func TestDeadlineExceededReturnsPartial(t *testing.T) {
	g := bigGraph()
	_, ts := newTestServer(t, g, Options{})
	want := core.FilterRefineSky(g, core.Options{}).Skyline

	code, body := get(t, ts, "/v1/skyline?timeout=1ns")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["truncated"] != true || body["cause"] != "timeout" {
		t.Fatalf("want truncated=true cause=timeout, got %v", body)
	}
	got := ids(body["skyline"])
	if len(got) < len(want) {
		t.Fatalf("truncated skyline |%d| smaller than true skyline |%d| — not a superset",
			len(got), len(want))
	}
	in := make(map[int32]bool, len(got))
	for _, v := range got {
		in[v] = true
	}
	for _, v := range want {
		if !in[v] {
			t.Fatalf("true skyline vertex %d missing from truncated superset", v)
		}
	}
}

// TestBudgetExhaustedReturnsPartial drains a 1-unit work budget and
// checks the "budget" cause on all four query endpoints.
func TestBudgetExhaustedReturnsPartial(t *testing.T) {
	g := bigGraph()
	_, ts := newTestServer(t, g, Options{})
	for _, path := range []string{
		"/v1/skyline?budget=1",
		"/v1/dominators?budget=1&v=0,1,2",
		"/v1/centrality/group?k=2&budget=1",
		"/v1/clique?budget=1",
	} {
		code, body := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", path, code, body)
		}
		if body["truncated"] != true {
			t.Fatalf("%s: not truncated under a 1-unit budget: %v", path, body)
		}
		if body["cause"] != "budget" {
			t.Fatalf("%s: cause %v, want budget", path, body["cause"])
		}
	}
}

// TestMaxBudgetCap: a huge requested budget is clamped to MaxBudget, so
// the query still truncates.
func TestMaxBudgetCap(t *testing.T) {
	g := bigGraph()
	_, ts := newTestServer(t, g, Options{MaxBudget: 1})
	code, body := get(t, ts, "/v1/skyline?budget=9223372036854775807")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["truncated"] != true || body["cause"] != "budget" {
		t.Fatalf("MaxBudget cap not applied: %v", body)
	}
}

// TestServerShutdownNoGoroutineLeak runs queries, swaps, shuts the
// HTTP server down, closes the store, and checks every goroutine is
// gone — the serving layer must not strand workers or epoch reapers.
func TestServerShutdownNoGoroutineLeak(t *testing.T) {
	defer testleak.Check(t)()

	srv := New(&Snapshot{Graph: testGraph(), Name: "leak"}, Options{})
	ts := httptest.NewServer(srv.Handler())
	for i := 0; i < 5; i++ {
		if code, body := get(t, ts, "/v1/skyline"); code != 200 {
			t.Fatalf("status %d: %v", code, body)
		}
	}
	if code, body := post(t, ts, "/v1/snapshot/swap",
		`{"ops":[{"add":true,"u":0,"v":1},{"add":false,"u":0,"v":1}]}`); code != 200 {
		t.Fatalf("swap status %d: %v", code, body)
	}
	ts.CloseClientConnections()
	ts.Close()
	srv.Close()
	if got := srv.Store().RetiredEpochs(); got != 2 {
		t.Fatalf("RetiredEpochs after shutdown = %d, want 2", got)
	}
}

// TestQueriesAfterCloseReturn503 pins the shutdown contract.
func TestQueriesAfterCloseReturn503(t *testing.T) {
	srv := New(&Snapshot{Graph: testGraph(), Name: "x"}, Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()
	code, _ := get(t, ts, "/v1/skyline")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("query after Close: status %d, want 503", code)
	}
	for _, e := range readEndpoints {
		if code, _ := e.send(t, ts, e.method); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s after Close: status %d, want 503", e.method, e.path, code)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: status %d, want 503", resp.StatusCode)
	}
}

// --- golden response shapes ------------------------------------------------

// flattenKeys records every JSON key path in v ("skyline[]",
// "dominators[].v", ...). Values are deliberately excluded — timings
// and ids drift, the response schema must not.
func flattenKeys(prefix string, v any, out map[string]struct{}) {
	switch x := v.(type) {
	case map[string]any:
		for k, vv := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flattenKeys(p, vv, out)
		}
	case []any:
		out[prefix+"[]"] = struct{}{}
		if len(x) > 0 {
			flattenKeys(prefix+"[]", x[0], out)
		}
	default:
		out[prefix] = struct{}{}
	}
}

func shapeOf(body map[string]any) []string {
	set := map[string]struct{}{}
	flattenKeys("", body, set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestResponseShapeGolden fingerprints the JSON schema of every
// endpoint — complete and truncated variants — against
// testdata/response_shape.golden.json. Adding, renaming or dropping a
// response field fails here until the golden is regenerated with
// `go test ./internal/serve -run ResponseShape -update-golden`.
func TestResponseShapeGolden(t *testing.T) {
	_, ts := newTestServer(t, testGraph(), Options{})
	_, tsBig := newTestServer(t, bigGraph(), Options{})

	shapes := map[string][]string{}
	collect := func(name string, code int, body map[string]any) {
		t.Helper()
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %v", name, code, body)
		}
		shapes[name] = shapeOf(body)
	}

	code, body := get(t, ts, "/v1/skyline")
	collect("skyline", code, body)
	code, body = get(t, tsBig, "/v1/skyline?budget=1")
	collect("skyline-truncated", code, body)
	code, body = get(t, ts, "/v1/centrality/group?k=2")
	collect("centrality", code, body)
	code, body = get(t, ts, "/v1/clique")
	collect("clique", code, body)
	code, body = get(t, ts, "/v1/clique?k=2")
	collect("clique-topk", code, body)
	code, body = get(t, ts, "/v1/dominators?v=0,1")
	collect("dominators", code, body)
	code, body = get(t, ts, "/v1/skyline/layers?k=2")
	collect("layers", code, body)
	code, body = post(t, ts, "/v1/skyline/subset", `{"v":[0,1,2,3,4,5,6,7,8,9]}`)
	collect("subset", code, body)
	code, body = get(t, ts, "/v1/skyline/explain?v=5")
	collect("explain", code, body)
	code, body = post(t, ts, "/v1/snapshot/swap", `{"ops":[{"add":true,"u":0,"v":2}]}`)
	collect("swap", code, body)
	code, body = get(t, ts, "/v1/stats")
	collect("stats", code, body)

	goldenPath := filepath.Join("testdata", "response_shape.golden.json")
	gotJSON, err := json.MarshalIndent(shapes, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	gotJSON = append(gotJSON, '\n')
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, gotJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Fatalf("response shapes drifted from %s.\nGot:\n%s\nWant:\n%s\n"+
			"Regenerate with: go test ./internal/serve -run ResponseShape -update-golden",
			goldenPath, gotJSON, want)
	}
}

// TestConcurrentQueriesDuringSwaps is the HTTP-level cousin of the
// epoch race battery: real handlers, real swaps, every response must be
// coherent (epoch set, n constant under edge-only swaps). The second
// pass runs behind a two-request admission gate, where every read and
// swap must answer 200 or 429.
func TestConcurrentQueriesDuringSwaps(t *testing.T) {
	g := testGraph()
	paths := []string{"/v1/skyline?limit=8", "/v1/dominators?v=1,2", "/v1/clique",
		"/v1/centrality/group?k=2&measure=harmonic", "/v1/clique?k=2"}
	for _, opts := range []Options{{}, {MaxInFlight: 2}} {
		_, ts := newTestServer(t, g, opts)
		// Behind the admission gate a 429 is an allowed answer.
		allowed := func(code int) bool {
			return code == http.StatusOK || opts.MaxInFlight > 0 && code == http.StatusTooManyRequests
		}
		coherent := func(body map[string]any) bool {
			return int(body["n"].(float64)) == g.N() && int(body["epoch"].(float64)) >= 1
		}
		var answered atomic.Int64
		done := make(chan error, 8)
		for w := 0; w < 6; w++ {
			go func(w int) {
				for i := 0; i < 40; i++ {
					path := paths[i%len(paths)]
					code, body, err := fetch(ts, http.MethodGet, path, "")
					if err != nil {
						done <- err
						return
					}
					if !allowed(code) {
						done <- fmt.Errorf("%+v %s: status %d", opts, path, code)
						return
					}
					if code != http.StatusOK {
						continue
					}
					answered.Add(1)
					if !coherent(body) {
						done <- fmt.Errorf("%+v %s: torn response %v", opts, path, body)
						return
					}
				}
				done <- nil
			}(w)
		}
		for s := 0; s < 2; s++ {
			go func(s int) {
				for i := 0; i < 10; i++ {
					u := int32((s*10 + i) % g.N())
					v := int32((s*10 + i + 1) % g.N())
					if u == v {
						continue
					}
					body := fmt.Sprintf(`{"ops":[{"add":true,"u":%d,"v":%d}]}`, u, v)
					code, resp, err := fetch(ts, http.MethodPost, "/v1/snapshot/swap", body)
					if err != nil {
						done <- err
						return
					}
					if !allowed(code) {
						done <- fmt.Errorf("%+v swap: status %d: %v", opts, code, resp)
						return
					}
					if code == http.StatusOK && !coherent(resp) {
						done <- fmt.Errorf("%+v swap: torn response %v", opts, resp)
						return
					}
					time.Sleep(time.Millisecond)
				}
				done <- nil
			}(s)
		}
		for i := 0; i < 8; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		if answered.Load() == 0 {
			t.Fatalf("%+v: no read answered 200", opts)
		}
	}
}

// TestServerCloseDuringSwapsRace hammers POST /v1/snapshot/swap from
// several goroutines while the server shuts down mid-flight. Every
// request must resolve as a clean 200 (published before the store
// closed) or 503 (shutdown observed) — never a hang, torn response, or
// goroutine leak.
func TestServerCloseDuringSwapsRace(t *testing.T) {
	defer testleak.Check(t)()
	srv := New(&Snapshot{Graph: testGraph(), Name: "race"}, Options{})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()

	var bad atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"ops":[{"add":true,"u":%d,"v":%d}]}`, w, w+10)
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(ts.URL+"/v1/snapshot/swap", "application/json",
					strings.NewReader(body))
				if err != nil {
					bad.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 && resp.StatusCode != 503 {
					bad.Add(1)
					return
				}
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond)
	srv.Close() // races the in-flight swaps
	close(stop)
	wg.Wait()
	ts.CloseClientConnections()
	ts.Close()
	if got := bad.Load(); got != 0 {
		t.Fatalf("%d unexpected swap outcomes during shutdown", got)
	}
}
