package main

import (
	"fmt"
	"slices"
	"sync"

	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/graph"
	"neisky/internal/skytree"
)

// Response shapes of the daemon's query surface (the fields the oracle
// reads; unknown fields are ignored).
type meta struct {
	Epoch     uint64 `json:"epoch"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	Truncated bool   `json:"truncated"`
}

type skylineResp struct {
	meta
	SkylineSize int     `json:"skyline_size"`
	Skyline     []int32 `json:"skyline"`
}

type dominatorEntry struct {
	V         int32 `json:"v"`
	Dominator int32 `json:"dominator"`
	InSkyline bool  `json:"in_skyline"`
}

type dominatorsResp struct {
	meta
	SkylineSize int              `json:"skyline_size"`
	Dominators  []dominatorEntry `json:"dominators"`
}

type cliqueResp struct {
	meta
	Size   int     `json:"size"`
	Clique []int32 `json:"clique"`
}

type layersResp struct {
	meta
	NumLayers  int       `json:"num_layers"`
	K          int       `json:"k"`
	LayerSizes []int     `json:"layer_sizes"`
	Layers     [][]int32 `json:"layers"`
}

type explainStep struct {
	V     int32 `json:"v"`
	Layer int32 `json:"layer"`
}

type explainResp struct {
	meta
	V     int32         `json:"v"`
	Layer int32         `json:"layer"`
	Chain []explainStep `json:"chain"`
}

type subsetResp struct {
	meta
	SubsetSize    int     `json:"subset_size"`
	SkylineSize   int     `json:"skyline_size"`
	Skyline       []int32 `json:"skyline"`
	PairsExamined int     `json:"pairs_examined"`
	WitnessHits   int     `json:"witness_hits"`
}

type swapResp struct {
	meta
	Applied int `json:"applied"`
}

type statsResp struct {
	N int `json:"n"`
	M int `json:"m"`
}

// newResp returns an empty response value for a class.
func newResp(class string) any {
	switch class {
	case clsSkyline:
		return &skylineResp{}
	case clsDominators:
		return &dominatorsResp{}
	case clsClique:
		return &cliqueResp{}
	case clsLayers:
		return &layersResp{}
	case clsExplain:
		return &explainResp{}
	case clsSubset:
		return &subsetResp{}
	case clsSwap:
		return &swapResp{}
	}
	panic("servebench: unknown class " + class)
}

func metaOf(resp any) meta {
	switch r := resp.(type) {
	case *skylineResp:
		return r.meta
	case *dominatorsResp:
		return r.meta
	case *cliqueResp:
		return r.meta
	case *layersResp:
		return r.meta
	case *explainResp:
		return r.meta
	case *subsetResp:
		return r.meta
	case *swapResp:
		return r.meta
	}
	panic(fmt.Sprintf("servebench: unknown response %T", resp))
}

// truth holds the reference answers for one graph: Algorithm 3's
// skyline and dominator array, the layered index, and lazily the
// maximum clique size and subset skylines.
type truth struct {
	g    *graph.Graph
	sky  *core.Result
	tree *skytree.Tree

	mu      sync.Mutex
	omega   int // 0 until computed
	subsets map[int][]int32
}

func newTruth(g *graph.Graph) *truth {
	return &truth{
		g:       g,
		sky:     core.FilterRefineSky(g, core.Options{}),
		tree:    skytree.Build(g, skytree.BuildOptions{}),
		subsets: map[int][]int32{},
	}
}

// precompute fills the lazy answers the stream's classes need, so the
// readers spend no time on them inside the measured window.
func (t *truth) precompute(s *stream) {
	for _, c := range s.w.classes() {
		switch c {
		case clsClique:
			t.cliqueSize()
		case clsSubset:
			for i, sub := range s.subsets {
				t.subsetSkyline(i, sub)
			}
		}
	}
}

// cliqueSize is the maximum clique size by the exact BaseMCC search.
func (t *truth) cliqueSize() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.omega == 0 {
		t.omega = len(clique.BaseMCC(t.g).Clique)
	}
	return t.omega
}

// subsetSkyline is the sharded engine's skyline of the subgraph induced
// by sub (ascending), mapped back to ids of g.
func (t *truth) subsetSkyline(key int, sub []int32) []int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.subsets[key]; ok {
		return s
	}
	ig, orig := t.g.InducedSubgraph(sub)
	res := core.ShardedFilterRefineSky(ig, core.Options{KeepIsolated: true}, core.ShardOptions{})
	out := make([]int32, len(res.Skyline))
	for i, v := range res.Skyline {
		out[i] = orig[v]
	}
	slices.Sort(out)
	t.subsets[key] = out
	return out
}

// check verifies one decoded response to rq against t. It checks the
// envelope first: a response whose n or m differ from t's graph was
// answered from a graph other than the one its epoch names (a torn read).
func (t *truth) check(s *stream, rq request, resp any) error {
	m := metaOf(resp)
	if m.Truncated {
		return fmt.Errorf("truncated answer")
	}
	if m.N != t.g.N() || m.M != t.g.M() {
		return fmt.Errorf("torn read: epoch %d reports n=%d m=%d, its graph has n=%d m=%d",
			m.Epoch, m.N, m.M, t.g.N(), t.g.M())
	}
	switch r := resp.(type) {
	case *skylineResp:
		return t.checkSkyline(r, defaultLimit)
	case *dominatorsResp:
		return t.checkDominators(rq.ids, r)
	case *cliqueResp:
		return t.checkClique(r)
	case *layersResp:
		return t.checkLayers(layersK, defaultLimit, r)
	case *explainResp:
		return t.checkExplain(rq.v, r)
	case *subsetResp:
		return t.checkSubset(rq.sub, s.subsets[rq.sub], r)
	}
	return fmt.Errorf("no oracle for %T", resp)
}

func (t *truth) checkSkyline(r *skylineResp, limit int) error {
	want := t.sky.Skyline
	if r.SkylineSize != len(want) {
		return fmt.Errorf("skyline_size %d, want %d", r.SkylineSize, len(want))
	}
	if !slices.Equal(r.Skyline, want[:min(limit, len(want))]) {
		return fmt.Errorf("listed skyline differs from FilterRefineSky's first %d ids", min(limit, len(want)))
	}
	return nil
}

func (t *truth) checkDominators(ids []int32, r *dominatorsResp) error {
	if r.SkylineSize != len(t.sky.Skyline) {
		return fmt.Errorf("skyline_size %d, want %d", r.SkylineSize, len(t.sky.Skyline))
	}
	if len(r.Dominators) != len(ids) {
		return fmt.Errorf("%d dominator entries for %d ids", len(r.Dominators), len(ids))
	}
	n := int32(t.g.N())
	for i, e := range r.Dominators {
		if e.V != ids[i] {
			return fmt.Errorf("entry %d names vertex %d, asked %d", i, e.V, ids[i])
		}
		inSky := t.sky.Dominator[e.V] == e.V
		if e.InSkyline != inSky {
			return fmt.Errorf("vertex %d: in_skyline=%v, want %v", e.V, e.InSkyline, inSky)
		}
		switch {
		case inSky && e.Dominator != e.V:
			return fmt.Errorf("skyline vertex %d names dominator %d", e.V, e.Dominator)
		case !inSky && (e.Dominator < 0 || e.Dominator >= n || !core.Dominates(t.g, e.Dominator, e.V)):
			return fmt.Errorf("vertex %d: %d does not dominate it", e.V, e.Dominator)
		}
	}
	return nil
}

func (t *truth) checkClique(r *cliqueResp) error {
	if r.Size != len(r.Clique) {
		return fmt.Errorf("size %d but %d members", r.Size, len(r.Clique))
	}
	for _, v := range r.Clique {
		if v < 0 || int(v) >= t.g.N() {
			return fmt.Errorf("clique member %d out of range", v)
		}
	}
	if !clique.IsClique(t.g, r.Clique) {
		return fmt.Errorf("answer is not a clique")
	}
	if w := t.cliqueSize(); r.Size != w {
		return fmt.Errorf("clique size %d, BaseMCC finds %d", r.Size, w)
	}
	return nil
}

func (t *truth) checkLayers(k, limit int, r *layersResp) error {
	if r.NumLayers != t.tree.NumLayers() {
		return fmt.Errorf("num_layers %d, want %d", r.NumLayers, t.tree.NumLayers())
	}
	if !slices.Equal(r.LayerSizes, t.tree.LayerSizes()) {
		return fmt.Errorf("layer_sizes %v, want %v", r.LayerSizes, t.tree.LayerSizes())
	}
	want := t.tree.TopK(k)
	if r.K != len(want) || len(r.Layers) != len(want) {
		return fmt.Errorf("k=%d with %d layers, want %d", r.K, len(r.Layers), len(want))
	}
	for i, l := range want {
		if !slices.Equal(r.Layers[i], l[:min(limit, len(l))]) {
			return fmt.Errorf("layer %d differs from skytree.Build", i)
		}
	}
	return nil
}

func (t *truth) checkExplain(v int32, r *explainResp) error {
	if r.V != v || r.Layer != t.tree.Layer(v) {
		return fmt.Errorf("explain v=%d layer=%d, want v=%d layer=%d", r.V, r.Layer, v, t.tree.Layer(v))
	}
	want := t.tree.Explain(v)
	if len(r.Chain) != len(want) {
		return fmt.Errorf("chain of %d steps, want %d", len(r.Chain), len(want))
	}
	for i, u := range want {
		if r.Chain[i] != (explainStep{V: u, Layer: t.tree.Layer(u)}) {
			return fmt.Errorf("chain step %d is %+v, want {%d %d}", i, r.Chain[i], u, t.tree.Layer(u))
		}
	}
	return nil
}

func (t *truth) checkSubset(key int, sub []int32, r *subsetResp) error {
	if r.SubsetSize != len(sub) {
		return fmt.Errorf("subset_size %d, want %d", r.SubsetSize, len(sub))
	}
	want := t.subsetSkyline(key, sub)
	got := slices.Clone(r.Skyline)
	slices.Sort(got)
	if r.SkylineSize != len(want) || !slices.Equal(got, want) {
		return fmt.Errorf("subset skyline of %d differs from the sharded engine's %d on the induced subgraph",
			r.SkylineSize, len(want))
	}
	return nil
}
