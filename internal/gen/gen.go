// Package gen builds the synthetic graphs used across the experiments:
// Erdős–Rényi G(n,p) and Chung–Lu power-law random graphs (Fig 6),
// Barabási–Albert preferential attachment (dataset stand-ins), and the
// special families of Fig 2 (clique, complete binary tree, cycle, path).
//
// All generators are deterministic given a seed and produce simple
// undirected graphs.
package gen

import (
	"math"

	"neisky/internal/graph"
	"neisky/internal/rng"
)

// ER samples an Erdős–Rényi G(n, p) graph using geometric edge skipping,
// which runs in O(n + m) expected time even for tiny p.
func ER(n int, p float64, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	if p <= 0 || n < 2 {
		return b.Build()
	}
	if p >= 1 {
		return Clique(n)
	}
	r := rng.New(seed)
	logq := math.Log(1 - p)
	// Enumerate candidate pairs (u, v), u < v, in lexicographic order and
	// jump ahead geometrically.
	u, v := 0, 0
	for u < n-1 {
		skip := 1 + int(math.Log(1-r.Float64())/logq)
		v += skip
		for v >= n && u < n-1 {
			u++
			v = u + 1 + (v - n)
		}
		if u < n-1 && v < n {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Build()
}

// ERDeltaP reproduces the paper's Fig 6(a) parameterization: edge
// probability p = Δp·log(n)/n.
func ERDeltaP(n int, deltaP float64, seed uint64) *graph.Graph {
	p := deltaP * math.Log(float64(n)) / float64(n)
	if p > 1 {
		p = 1
	}
	return ER(n, p, seed)
}

// PowerLaw samples a Chung–Lu random graph whose expected degree sequence
// follows a power law with exponent beta (the paper's growth exponent β),
// scaled so the expected number of edges is approximately m. The
// Miller–Hagberg skipping construction gives O(n + m) expected time.
func PowerLaw(n, m int, beta float64, seed uint64) *graph.Graph {
	return ChungLu(powerLawWeights(n, m, beta), seed)
}

// powerLawWeights builds Chung–Lu weights w_i ∝ (i + i0)^(-1/(β-1))
// normalized so Σw = 2m (the expected degree sum).
func powerLawWeights(n, m int, beta float64) []float64 {
	if n == 0 {
		return nil
	}
	alpha := 1 / (beta - 1)
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -alpha)
		sum += w[i]
	}
	scale := 2 * float64(m) / sum
	for i := range w {
		w[i] *= scale
	}
	return w
}

// ChungLu samples a graph where edge (i, j) appears independently with
// probability min(1, w_i·w_j/W), W = Σw. Weights must be sorted in
// non-increasing order (powerLawWeights produces them that way).
func ChungLu(w []float64, seed uint64) *graph.Graph {
	n := len(w)
	b := graph.NewBuilder(n)
	if n < 2 {
		return b.Build()
	}
	W := 0.0
	for _, x := range w {
		W += x
	}
	if W <= 0 {
		return b.Build()
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
				b.AddEdge(int32(i), int32(j))
			}
			p = q
			j++
		}
	}
	return b.Build()
}

// BA grows a Barabási–Albert preferential-attachment graph: each new
// vertex attaches to k distinct existing vertices chosen proportionally
// to degree. Produces heavy-tailed degree distributions with a sharply
// dominant hub set, resembling web/social graphs.
func BA(n, k int, seed uint64) *graph.Graph {
	b := graph.NewBuilder(n)
	// The emit callback never fails, so neither does StreamBA.
	_ = StreamBA(n, k, seed, func(u, v int32) error {
		b.AddEdge(u, v)
		return nil
	})
	return b.Build()
}

// Clique returns the complete graph K_n (Fig 2a).
func Clique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// CompleteBinaryTree returns a complete binary tree on n vertices with
// vertex 0 as the root and children 2i+1, 2i+2 (Fig 2b).
func CompleteBinaryTree(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n {
				b.AddEdge(int32(i), int32(c))
			}
		}
	}
	return b.Build()
}

// Cycle returns the n-cycle C_n (Fig 2c).
func Cycle(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	if n == 2 {
		b.AddEdge(0, 1)
		return b.Build()
	}
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// Path returns the n-vertex path P_n (Fig 2d).
func Path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// Star returns the star K_{1,n-1} with vertex 0 at the center.
func Star(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	return b.Build()
}

// PlantedClique embeds a clique on cliqueSize random vertices inside an
// ER G(n, p) background, a standard maximum-clique stress workload.
func PlantedClique(n int, p float64, cliqueSize int, seed uint64) (*graph.Graph, []int32) {
	base := ER(n, p, seed)
	r := rng.New(seed ^ 0xc11c5eed)
	perm := r.Perm(n)
	members := make([]int32, 0, cliqueSize)
	for _, v := range perm[:cliqueSize] {
		members = append(members, int32(v))
	}
	b := graph.NewBuilder(n)
	base.Edges(func(u, v int32) { b.AddEdge(u, v) })
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			b.AddEdge(members[i], members[j])
		}
	}
	return b.Build(), members
}
