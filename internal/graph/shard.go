package graph

import "sort"

// Vertex shards: the sharded skyline engine (internal/core/shard.go)
// partitions the CSR vertex range into contiguous id ranges and hands
// each to one worker at a time. Contiguity is the point — on a
// degree-relabeled snapshot a shard is one dense stretch of the offsets
// and adjacency arrays, so a shard scan walks the mapping sequentially
// and the per-shard resident set is the shard's own CSR span plus
// whatever cross-shard probes touch.

// ShardRange is one contiguous vertex range [Lo, Hi).
type ShardRange struct {
	Lo, Hi int32
}

// Len returns the number of vertices in the range.
func (r ShardRange) Len() int { return int(r.Hi - r.Lo) }

// PartitionShards splits the vertex range into at most s contiguous,
// non-empty, disjoint shards covering [0, n), balanced by CSR work:
// the weight of vertex v is 1 + deg(v) (its offsets entry plus its
// adjacency window), so shard boundaries equalize n + 2m across shards
// rather than raw vertex counts — on a degree-relabeled snapshot the
// low-id hub shard stays narrow and the high-id tail shards widen.
//
// Boundaries come from binary searches over the cumulative weight
// W(v) = v + offsets[v] (monotone by construction; the flat offset is
// read from v's block and the block's base), so partitioning costs
// O(s log n). Fewer than s shards come back when n < s or when a
// single vertex outweighs a whole target slice (the next boundary is
// pushed past several targets to keep shards non-empty).
func (g *Graph) PartitionShards(s int) []ShardRange {
	n := int32(g.N())
	if n == 0 {
		return nil
	}
	if s < 1 {
		s = 1
	}
	if int32(s) > n {
		s = int(n)
	}
	total := int64(n) + 2*int64(g.m)
	shards := make([]ShardRange, 0, s)
	lo := int32(0)
	for i := 0; i < s && lo < n; i++ {
		hi := n
		if i < s-1 {
			// Smallest v > lo with W(v) ≥ the i-th cumulative target.
			target := total * int64(i+1) / int64(s)
			hi = lo + 1 + int32(sort.Search(int(n-lo-1), func(k int) bool {
				v := lo + 1 + int32(k)
				return int64(v)+int64(g.offset(v)) >= target
			}))
		}
		shards = append(shards, ShardRange{Lo: lo, Hi: hi})
		lo = hi
	}
	return shards
}
