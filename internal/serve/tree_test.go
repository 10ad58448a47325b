package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"neisky/internal/core"
	"neisky/internal/skytree"
)

func TestLayersEndpointMatchesIndex(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	want := skytree.Build(g, skytree.BuildOptions{})

	code, body := get(t, ts, "/v1/skyline/layers")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["truncated"] != false {
		t.Fatalf("unexpected truncation: %v", body)
	}
	if int(body["num_layers"].(float64)) != want.NumLayers() {
		t.Fatalf("num_layers %v, want %d", body["num_layers"], want.NumLayers())
	}
	layers, _ := body["layers"].([]any)
	if len(layers) != want.NumLayers() {
		t.Fatalf("%d layers returned, want %d", len(layers), want.NumLayers())
	}
	for k, l := range layers {
		got := ids(l)
		if fmt.Sprint(got) != fmt.Sprint(want.LayerVertices(k)) {
			t.Fatalf("layer %d: %v, want %v", k, got, want.LayerVertices(k))
		}
	}

	// ?k bounds materialized layers; layer_sizes still covers all.
	code, body = get(t, ts, "/v1/skyline/layers?k=1")
	if code != http.StatusOK {
		t.Fatalf("k=1 status %d: %v", code, body)
	}
	layers, _ = body["layers"].([]any)
	if len(layers) != 1 {
		t.Fatalf("k=1 returned %d layers", len(layers))
	}
	if sizes, _ := body["layer_sizes"].([]any); len(sizes) != want.NumLayers() {
		t.Fatalf("k=1 layer_sizes %v, want %d entries", sizes, want.NumLayers())
	}

	if code, _ := get(t, ts, "/v1/skyline/layers?k=0"); code != http.StatusBadRequest {
		t.Fatalf("k=0: status %d, want 400", code)
	}
}

func TestLayersLimitClipsLists(t *testing.T) {
	_, ts := newTestServer(t, testGraph(), Options{})
	code, body := get(t, ts, "/v1/skyline/layers?limit=2")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	layers, _ := body["layers"].([]any)
	for k, l := range layers {
		if got := len(ids(l)); got > 2 {
			t.Fatalf("layer %d has %d members after limit=2", k, got)
		}
	}
}

func TestSubsetEndpointAlgosAgree(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	tr := skytree.Build(g, skytree.BuildOptions{})

	sub := []int32{0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59}
	var toks []string
	for _, v := range sub {
		toks = append(toks, fmt.Sprint(v))
	}
	reqBody := `{"v":[` + strings.Join(toks, ",") + `]}`
	want := skytree.SubsetSkyline(g, tr, sub).Skyline

	// The recompute answer: materialize the induced subgraph (sub is
	// ascending, so the engine's ID tie-breaks carry over) and run the
	// sharded engine on it under the same KeepIsolated convention.
	ig, orig := g.InducedSubgraph(sub)
	rec := core.ShardedFilterRefineSky(ig, core.Options{KeepIsolated: true}, core.ShardOptions{})
	recompute := make([]int32, len(rec.Skyline))
	for i, v := range rec.Skyline {
		recompute[i] = orig[v]
	}
	if fmt.Sprint(recompute) != fmt.Sprint(want) {
		t.Fatalf("recompute skyline %v, tree skyline %v", recompute, want)
	}

	code, body := post(t, ts, "/v1/skyline/subset", reqBody)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if got := ids(body["skyline"]); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("skyline %v, want %v", got, want)
	}
	if int(body["subset_size"].(float64)) != len(sub) {
		t.Fatalf("subset_size %v, want %d", body["subset_size"], len(sub))
	}
}

func TestSubsetEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, testGraph(), Options{MaxList: 8})
	for _, tc := range []struct {
		path, body string
		want       int
	}{
		{"/v1/skyline/subset", `{"v":[0,99999]}`, http.StatusBadRequest},
		{"/v1/skyline/subset", `{"v":[]}`, http.StatusBadRequest},
		{"/v1/skyline/subset", `{}`, http.StatusBadRequest},
		{"/v1/skyline/subset", `{"v":[0,1,2,3,4,5,6,7,8]}`, http.StatusBadRequest}, // > MaxList
		{"/v1/skyline/subset", `{"w":[0]}`, http.StatusBadRequest},                 // unknown field
	} {
		if code, body := post(t, ts, tc.path, tc.body); code != tc.want {
			t.Fatalf("%s %s: status %d, want %d: %v", tc.path, tc.body, code, tc.want, body)
		}
	}
	if code, _ := get(t, ts, "/v1/skyline/subset"); code != http.StatusMethodNotAllowed {
		t.Fatal("GET subset not rejected")
	}
	// Valid JSON for two ids, padded past the body cap.
	big := `{"v":[0,1` + strings.Repeat(" ", maxSwapBody) + `]}`
	if code, body := post(t, ts, "/v1/skyline/subset", big); code != http.StatusBadRequest {
		t.Fatalf("subset body over the %d-byte cap: status %d, want 400: %v", maxSwapBody, code, body)
	}
}

func TestExplainEndpointChains(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	tr := skytree.Build(g, skytree.BuildOptions{})

	for _, v := range []int32{0, 7, 31, 59} {
		code, body := get(t, ts, fmt.Sprintf("/v1/skyline/explain?v=%d", v))
		if code != http.StatusOK {
			t.Fatalf("v=%d: status %d: %v", v, code, body)
		}
		if int32(body["layer"].(float64)) != tr.Layer(v) {
			t.Fatalf("v=%d: layer %v, want %d", v, body["layer"], tr.Layer(v))
		}
		chain, _ := body["chain"].([]any)
		want := tr.Explain(v)
		if len(chain) != len(want) {
			t.Fatalf("v=%d: chain of %d, want %d", v, len(chain), len(want))
		}
		for i, step := range chain {
			m := step.(map[string]any)
			if int32(m["v"].(float64)) != want[i] {
				t.Fatalf("v=%d: chain[%d] = %v, want %d", v, i, m["v"], want[i])
			}
			if int32(m["layer"].(float64)) != tr.Layer(want[i]) {
				t.Fatalf("v=%d: chain[%d] layer %v, want %d", v, i, m["layer"], tr.Layer(want[i]))
			}
		}
	}

	for _, path := range []string{"/v1/skyline/explain", "/v1/skyline/explain?v=-1",
		"/v1/skyline/explain?v=99999", "/v1/skyline/explain?v=x"} {
		if code, _ := get(t, ts, path); code != http.StatusBadRequest {
			t.Fatalf("%s: want 400", path)
		}
	}
}

func TestSwapCarriesTreeOver(t *testing.T) {
	g := testGraph()
	srv, ts := newTestServer(t, g, Options{})

	// Build the index on epoch 1, then swap an edge batch in: the new
	// epoch must answer layer queries consistent with a from-scratch
	// build of its own graph (the incremental carry-over oracle, e2e).
	if code, body := get(t, ts, "/v1/skyline/layers"); code != http.StatusOK {
		t.Fatalf("prewarm: status %d: %v", code, body)
	}
	code, body := post(t, ts, "/v1/snapshot/swap",
		`{"ops":[{"add":true,"u":0,"v":2},{"add":true,"u":1,"v":3},{"add":false,"u":0,"v":2}]}`)
	if code != http.StatusOK {
		t.Fatalf("swap: status %d: %v", code, body)
	}

	// The swapped-in snapshot carries a prebuilt tree (no lazy rebuild).
	pin := srv.Store().Acquire()
	carried := pin.Snapshot().TreeIfBuilt()
	ng := pin.Graph()
	pin.Release()
	if carried == nil {
		t.Fatal("swap did not carry the index over")
	}
	if want := skytree.Build(ng, skytree.BuildOptions{}); !carried.Equal(want) {
		t.Fatal("carried-over index differs from a rebuild of the swapped graph")
	}

	code, body = get(t, ts, "/v1/skyline/layers")
	if code != http.StatusOK || int(body["epoch"].(float64)) != 2 {
		t.Fatalf("post-swap layers: status %d epoch %v", code, body["epoch"])
	}
}

// TestConcurrentTreeQueriesDuringSwaps is the epoch-swap battery for
// the layered-index endpoints: layers/explain/subset queries race
// against edge-batch swaps (which themselves carry the index over once
// built), and every response must be coherent. Run under -race this
// asserts the lazy build, the carry-over and the RCU pins never alias
// mutable state across epochs.
func TestConcurrentTreeQueriesDuringSwaps(t *testing.T) {
	g := testGraph()
	_, ts := newTestServer(t, g, Options{})
	done := make(chan error, 8)
	for w := 0; w < 6; w++ {
		go func(w int) {
			for i := 0; i < 40; i++ {
				var code int
				var body map[string]any
				switch i % 3 {
				case 0:
					code, body = get(t, ts, "/v1/skyline/layers?k=2&limit=16")
				case 1:
					code, body = get(t, ts, fmt.Sprintf("/v1/skyline/explain?v=%d", (w*7+i)%g.N()))
				default:
					code, body = post(t, ts, "/v1/skyline/subset", `{"v":[0,1,2,3,4,5,6,7,8,9,10,11]}`)
				}
				if code != http.StatusOK {
					done <- fmt.Errorf("worker %d query %d: status %d: %v", w, i, code, body)
					return
				}
				if int(body["n"].(float64)) != g.N() || int(body["epoch"].(float64)) < 1 {
					done <- fmt.Errorf("worker %d query %d: torn response %v", w, i, body)
					return
				}
			}
			done <- nil
		}(w)
	}
	for s := 0; s < 2; s++ {
		go func(s int) {
			for i := 0; i < 10; i++ {
				u := int32((s*11 + i) % g.N())
				v := int32((s*11 + i + 2) % g.N())
				if u == v {
					continue
				}
				body := fmt.Sprintf(`{"ops":[{"add":true,"u":%d,"v":%d}]}`, u, v)
				if code, resp := post(t, ts, "/v1/snapshot/swap", body); code != http.StatusOK {
					done <- fmt.Errorf("swap: status %d: %v", code, resp)
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
}
