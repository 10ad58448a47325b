package gen

import (
	"math"

	"neisky/internal/graph"
	"neisky/internal/rng"
)

// Edge-stream workloads for the dynamic skyline maintainer: random link
// churn over a base graph.

// StreamOp is one edge update.
type StreamOp struct {
	Add  bool
	U, V int32
}

// ChurnStream mutates a base graph: each step flips a random vertex
// pair (insert if absent, delete if present), modeling link churn.
func ChurnStream(g *graph.Graph, steps int, seed uint64) []StreamOp {
	r := rng.New(seed)
	n := int32(g.N())
	present := make(map[[2]int32]bool, g.M())
	g.Edges(func(u, v int32) { present[[2]int32{u, v}] = true })
	ops := make([]StreamOp, 0, steps)
	for i := 0; i < steps; i++ {
		u := int32(r.Intn(int(n)))
		v := int32(r.Intn(int(n)))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := [2]int32{u, v}
		if present[key] {
			delete(present, key)
			ops = append(ops, StreamOp{Add: false, U: u, V: v})
		} else {
			present[key] = true
			ops = append(ops, StreamOp{Add: true, U: u, V: v})
		}
	}
	return ops
}

// Streaming generators for multi-million-node graphs: each emits its
// edges through a callback instead of materializing a Builder, so the
// only resident state is the generator's own (O(n) for Chung–Lu's
// weight vector, O(n·k) for BA's endpoint multiset). Paired with the
// streaming converter (graph.ConvertEdges) the full
// generate → CSR-snapshot pipeline never holds the graph in memory.
// Emitted edges may repeat; the converter deduplicates.

// StreamChungLu emits a Chung–Lu power-law graph with n vertices,
// ≈m expected edges and exponent beta, the same Miller–Hagberg
// construction (and edge distribution, given equal seeds) as PowerLaw.
// Resident memory is the O(n) weight vector.
func StreamChungLu(n, m int, beta float64, seed uint64, emit func(u, v int32) error) error {
	w := powerLawWeights(n, m, beta)
	if n < 2 {
		return nil
	}
	W := 0.0
	for _, x := range w {
		W += x
	}
	if W <= 0 {
		return nil
	}
	r := rng.New(seed)
	for i := 0; i < n-1; i++ {
		j := i + 1
		p := math.Min(1, w[i]*w[j]/W)
		for j < n && p > 0 {
			if p < 1 {
				skip := math.Floor(math.Log(1-r.Float64()) / math.Log(1-p))
				if skip > float64(n) {
					break
				}
				j += int(skip)
			}
			if j >= n {
				break
			}
			q := math.Min(1, w[i]*w[j]/W)
			if r.Float64() < q/p {
				if err := emit(int32(i), int32(j)); err != nil {
					return err
				}
			}
			p = q
			j++
		}
	}
	return nil
}

// StreamBA emits a Barabási–Albert preferential-attachment graph; BA
// builds its graph from this edge sequence. The endpoint multiset makes
// resident memory O(n·k) — inherent to preferential attachment — which
// is still far below the built CSR.
func StreamBA(n, k int, seed uint64, emit func(u, v int32) error) error {
	if n <= 1 {
		return nil
	}
	if k < 1 {
		k = 1
	}
	r := rng.New(seed)
	repeated := make([]int32, 0, 2*n*k)
	seedN := k + 1
	if seedN > n {
		seedN = n
	}
	for i := 0; i < seedN; i++ {
		for j := i + 1; j < seedN; j++ {
			if err := emit(int32(i), int32(j)); err != nil {
				return err
			}
			repeated = append(repeated, int32(i), int32(j))
		}
	}
	// targets lists v's distinct targets in the order they were first
	// drawn; ranging over chosen instead would make one seed give a
	// different graph on every call.
	chosen := make(map[int32]bool, k)
	targets := make([]int32, 0, k)
	for v := seedN; v < n; v++ {
		clear(chosen)
		targets = targets[:0]
		for len(targets) < k && len(targets) < v {
			var t int32
			if len(repeated) == 0 {
				t = int32(r.Intn(v))
			} else {
				t = repeated[r.Intn(len(repeated))]
			}
			if !chosen[t] {
				chosen[t] = true
				targets = append(targets, t)
			}
		}
		for _, t := range targets {
			if err := emit(int32(v), t); err != nil {
				return err
			}
			repeated = append(repeated, int32(v), t)
		}
	}
	return nil
}

// ShuffledLabels wraps an emit callback with a deterministic
// pseudorandom permutation of the vertex ids 0..n-1. The synthetic
// generators hand out ids in weight/arrival order — Chung–Lu's vertex
// 0 is its biggest hub — which is already the cache-friendly layout
// that degree-descending relabeling produces; real edge-list datasets
// are not so lucky. Shuffling restores the realistic arbitrary-id
// regime, so relabel-on vs relabel-off benchmarks measure an honest
// locality win. Costs an O(n) permutation array.
func ShuffledLabels(n int, seed uint64, emit func(u, v int32) error) func(u, v int32) error {
	perm := rng.New(seed ^ 0x5b0f_f1ed).Perm(n)
	ids := make([]int32, n)
	for i, p := range perm {
		ids[i] = int32(p)
	}
	return func(u, v int32) error {
		return emit(ids[u], ids[v])
	}
}
