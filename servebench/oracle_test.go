package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"neisky/internal/gen"
	"neisky/internal/serve"
)

// fixture serves a small Chung-Lu graph from an in-process daemon and
// holds the oracle's truth for it.
type fixture struct {
	srv *httptest.Server
	st  *stream
	t   *truth
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	g := gen.PowerLaw(3000, 12000, 2.5, 4)
	srv := serve.New(&serve.Snapshot{Graph: g, Name: "fixture"}, serve.Options{})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	w := workload{name: "all", readers: 1, mix: []mixEntry{
		{clsSkyline, 15}, {clsDominators, 15}, {clsClique, 10}, {clsLayers, 15}, {clsExplain, 25}, {clsSubset, 20}}}
	return &fixture{srv: hs, st: newStream(w, 11, g.N()), t: newTruth(g)}
}

// answer fetches the daemon's real answer to the first request of class.
func (f *fixture) answer(t *testing.T, class string) (request, any) {
	t.Helper()
	rq := f.st.firstOf(class)
	code, body, err := call(f.srv.Client(), f.srv.URL, rq.method, rq.url, rq.body)
	if err != nil || code != http.StatusOK {
		t.Fatalf("%s %s: %d %v %s", rq.method, rq.url, code, err, body)
	}
	resp := newResp(class)
	if err := json.Unmarshal(body, resp); err != nil {
		t.Fatal(err)
	}
	return rq, resp
}

// firstNonSkyline returns a non-isolated vertex the truth says is
// dominated.
func (f *fixture) firstNonSkyline() int32 {
	for v, d := range f.t.sky.Dominator {
		if d != int32(v) && f.t.g.Degree(int32(v)) > 0 {
			return int32(v)
		}
	}
	panic("fixture graph has no dominated vertex")
}

// firstDeep returns a vertex below the index's top layer.
func (f *fixture) firstDeep() int32 {
	for v := int32(0); int(v) < f.t.g.N(); v++ {
		if f.t.tree.Layer(v) > 0 {
			return v
		}
	}
	panic("fixture index has one layer")
}

func TestOracleAcceptsTheDaemonsAnswers(t *testing.T) {
	f := newFixture(t)
	for _, c := range readClasses {
		rq, resp := f.answer(t, c)
		if err := f.t.check(f.st, rq, resp); err != nil {
			t.Errorf("%s: %v", c, err)
		}
	}
}

func TestOracleRejectsDoctoredAnswers(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name   string
		class  string
		doctor func(rq *request, resp any)
	}{
		{"torn read", clsSkyline, func(_ *request, r any) { r.(*skylineResp).M++ }},
		{"truncated", clsSkyline, func(_ *request, r any) { r.(*skylineResp).Truncated = true }},
		{"skyline size", clsSkyline, func(_ *request, r any) { r.(*skylineResp).SkylineSize++ }},
		{"skyline member", clsSkyline, func(_ *request, r any) {
			s := r.(*skylineResp)
			s.Skyline = s.Skyline[1:]
		}},
		{"dominators in_skyline", clsDominators, func(_ *request, r any) {
			e := &r.(*dominatorsResp).Dominators[0]
			e.InSkyline = !e.InSkyline
		}},
		{"dominators wrong dominator", clsDominators, func(rq *request, r any) {
			v := f.firstNonSkyline()
			rq.ids = []int32{v}
			r.(*dominatorsResp).Dominators = []dominatorEntry{{V: v, Dominator: (v + 1) % int32(f.t.g.N())}}
		}},
		{"clique not maximum", clsClique, func(_ *request, r any) {
			c := r.(*cliqueResp)
			c.Clique = c.Clique[1:]
			c.Size--
		}},
		{"clique not a clique", clsClique, func(_ *request, r any) {
			c := r.(*cliqueResp)
			for v := int32(0); ; v++ {
				if !f.t.g.Has(v, c.Clique[0]) && v != c.Clique[0] {
					c.Clique[1] = v
					break
				}
			}
		}},
		{"layer sizes", clsLayers, func(_ *request, r any) { r.(*layersResp).LayerSizes[0]++ }},
		{"layer member", clsLayers, func(_ *request, r any) {
			l := r.(*layersResp)
			l.Layers[0][0], l.Layers[1][0] = l.Layers[1][0], l.Layers[0][0]
		}},
		{"explain chain", clsExplain, func(rq *request, r any) {
			v := f.firstDeep()
			rq.v = v
			e := r.(*explainResp)
			e.V, e.Layer = v, f.t.tree.Layer(v)
			e.Chain = []explainStep{{V: v, Layer: e.Layer}}
		}},
		{"explain layer", clsExplain, func(_ *request, r any) { r.(*explainResp).Layer++ }},
		{"subset member", clsSubset, func(_ *request, r any) {
			s := r.(*subsetResp)
			s.Skyline = s.Skyline[1:]
			s.SkylineSize--
		}},
		{"subset size", clsSubset, func(_ *request, r any) { r.(*subsetResp).SubsetSize-- }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rq, resp := f.answer(t, c.class)
			c.doctor(&rq, resp)
			if err := f.t.check(f.st, rq, resp); err == nil {
				t.Errorf("oracle accepted a doctored %s answer", c.class)
			}
		})
	}
}
