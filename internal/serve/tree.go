package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"neisky/internal/skytree"
)

// The layered-index query surface: three endpoints answered from the
// snapshot's skytree (built lazily on first use, carried over
// incrementally across batch swaps — see Snapshot.Tree and
// swapFromOps). All three run in the read skeleton and return the
// standard anytime markers.

type layersResponse struct {
	meta
	NumLayers  int       `json:"num_layers"`
	K          int       `json:"k"`
	LayerSizes []int     `json:"layer_sizes"`
	Layers     [][]int32 `json:"layers"`
}

// layers serves GET /v1/skyline/layers?k=&limit=. Layer 0 is the
// neighborhood skyline, layer k the skyline of the remainder after
// peeling layers < k. ?k bounds how many layers are materialized in the
// response (all of them when absent); layer_sizes always covers every
// layer. ?limit clips each returned layer's member list. A truncated
// response (the index build ran out of budget) lists the layers
// completed so far; the build is retried by the next query.
func (s *Server) layers(ctx context.Context, r *http.Request, pin *Pin) (response, error) {
	k, err := parseK(r, -1)
	if err != nil {
		return nil, err
	}
	limit, err := s.parseLimit(r)
	if err != nil {
		return nil, err
	}
	t := pin.Snapshot().Tree(ctx)
	if k < 0 || k > t.NumLayers() {
		k = t.NumLayers()
	}
	layers := make([][]int32, k)
	for i, l := range t.TopK(k) {
		layers[i] = clip(l, limit)
	}
	resp := &layersResponse{
		NumLayers:  t.NumLayers(),
		K:          k,
		LayerSizes: t.LayerSizes(),
		Layers:     layers,
	}
	if t.Truncated {
		resp.markTruncated(t.Err)
	}
	return resp, nil
}

// subsetRequest is the POST /v1/skyline/subset body.
type subsetRequest struct {
	V []int32 `json:"v"`
}

type subsetResponse struct {
	meta
	SubsetSize  int     `json:"subset_size"`
	SkylineSize int     `json:"skyline_size"`
	Skyline     []int32 `json:"skyline"`
	// Probe counters from the tree-assisted scan. Not omitempty: a zero
	// count is a real measurement and the response shape must not
	// depend on it.
	PairsExamined int `json:"pairs_examined"`
	WitnessHits   int `json:"witness_hits"`
}

// subset serves POST /v1/skyline/subset: the neighborhood skyline of
// the subgraph induced by the posted vertex set, under the KeepIsolated
// convention. It answers against the full CSR with the layered index
// steering the probe order — no induced graph is materialized. On
// truncation the listed set is a sound superset.
func (s *Server) subset(ctx context.Context, r *http.Request, pin *Pin) (response, error) {
	var req subsetRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("bad subset request: %v", err)
	}
	if len(req.V) == 0 {
		return nil, errors.New("subset request needs a non-empty v list")
	}
	if len(req.V) > s.opts.MaxList {
		return nil, fmt.Errorf("subset of %d exceeds the %d cap", len(req.V), s.opts.MaxList)
	}
	g := pin.Graph()
	seen := make(map[int32]bool, len(req.V))
	sub := make([]int32, 0, len(req.V))
	for i, v := range req.V {
		if v < 0 || int(v) >= g.N() {
			return nil, fmt.Errorf("bad vertex %d at index %d (graph has %d vertices)", v, i, g.N())
		}
		if !seen[v] {
			seen[v] = true
			sub = append(sub, v)
		}
	}

	// A truncated index build still yields sound (partial) hints; the
	// scan itself stays exact and carries the anytime contract.
	t := pin.Snapshot().Tree(ctx)
	res := skytree.SubsetSkylineCtx(ctx, g, t, sub)
	resp := &subsetResponse{
		SubsetSize:    len(sub),
		SkylineSize:   len(res.Skyline),
		Skyline:       clip(res.Skyline, s.opts.MaxList),
		PairsExamined: res.PairsExamined,
		WitnessHits:   res.WitnessHits,
	}
	if res.Truncated {
		resp.markTruncated(res.Err)
	}
	return resp, nil
}

type explainStep struct {
	V     int32 `json:"v"`
	Layer int32 `json:"layer"`
}

type explainResponse struct {
	meta
	V     int32         `json:"v"`
	Layer int32         `json:"layer"`
	Chain []explainStep `json:"chain"`
}

// explain serves GET /v1/skyline/explain?v=: the dominator chain from v
// to the skyline. Entry i+1 is the canonical parent witness of entry i
// — the minimum-ID vertex one layer up that dominates it at that level
// — so the chain ascends exactly one layer per hop and ends at a
// layer-0 vertex. On a truncated index build the chain stops at the
// deepest assigned ancestor.
func (s *Server) explain(ctx context.Context, r *http.Request, pin *Pin) (response, error) {
	raw := r.URL.Query().Get("v")
	id, err := strconv.ParseInt(raw, 10, 32)
	if err != nil || id < 0 {
		return nil, fmt.Errorf("bad vertex id %q", raw)
	}
	if n := pin.Graph().N(); id >= int64(n) {
		return nil, fmt.Errorf("bad vertex id %q (graph has %d vertices)", raw, n)
	}
	v := int32(id)
	t := pin.Snapshot().Tree(ctx)
	chain := t.Explain(v)
	steps := make([]explainStep, len(chain))
	for i, u := range chain {
		steps[i] = explainStep{V: u, Layer: t.Layer(u)}
	}
	resp := &explainResponse{V: v, Layer: t.Layer(v), Chain: steps}
	if t.Truncated {
		resp.markTruncated(t.Err)
	}
	return resp, nil
}
