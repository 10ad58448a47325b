package core

import (
	"context"
	"path/filepath"
	"sort"
	"testing"

	"neisky/internal/gen"
	"neisky/internal/graph"
	"neisky/internal/rng"
)

// shardFixtures is the battery every sharded-oracle test sweeps: shapes
// with hubs, ties, pendant chains and mutual-inclusion pairs.
func shardFixtures() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"powerlaw": gen.PowerLaw(400, 1600, 2.5, 7),
		"er":       gen.ER(300, 0.04, 11),
		"ba":       gen.BA(350, 3, 5),
		"clique":   gen.Clique(40),
		"cycle":    gen.Cycle(128),
		"path":     gen.Path(97),
	}
}

// TestShardedMatchesSerialOracle is the core equivalence: for every
// fixture and shard count, the sharded engine's skyline, candidate set
// and dominator array match the serial filter/refine engine's exactly.
func TestShardedMatchesSerialOracle(t *testing.T) {
	for name, g := range shardFixtures() {
		want := FilterRefineSky(g, Options{})
		for _, s := range []int{1, 2, 7, 64} {
			res := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true},
				ShardOptions{Shards: s, Workers: 2})
			if !EqualSkylines(res.Skyline, want.Skyline) {
				t.Errorf("%s shards=%d: skyline %v, want %v", name, s, res.Skyline, want.Skyline)
			}
			if !EqualSkylines(res.Candidates, want.Candidates) {
				t.Errorf("%s shards=%d: candidates %v, want %v", name, s, res.Candidates, want.Candidates)
			}
			for u := range res.Dominator {
				if (res.Dominator[u] == int32(u)) != (want.Dominator[u] == int32(u)) {
					t.Errorf("%s shards=%d: dominator liveness differs at %d: got %d, want %d",
						name, s, u, res.Dominator[u], want.Dominator[u])
				}
			}
			if res.Truncated {
				t.Errorf("%s shards=%d: unexpected truncation", name, s)
			}
		}
	}
}

// TestShardedDisableSketchOracle pins the ablation path: with the
// sketch pre-filter off, every containment check runs exactly and the
// answer is unchanged.
func TestShardedDisableSketchOracle(t *testing.T) {
	g := gen.PowerLaw(400, 1600, 2.5, 7)
	want := FilterRefineSky(g, Options{})
	res := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true},
		ShardOptions{Shards: 7, Workers: 2, DisableSketch: true})
	if !EqualSkylines(res.Skyline, want.Skyline) {
		t.Fatalf("skyline %v, want %v", res.Skyline, want.Skyline)
	}
	if !EqualSkylines(res.Candidates, want.Candidates) {
		t.Fatalf("candidates %v, want %v", res.Candidates, want.Candidates)
	}
	if res.Stats.SketchProbes != 0 || res.Stats.SketchSkips != 0 {
		t.Fatalf("sketch counters nonzero with DisableSketch: %+v", res.Stats)
	}
}

// TestShardedMmapMatchesHeap round-trips a fixture through the v2
// snapshot format and mmap, then checks the sharded engine (with the
// paging-hint callback wired) agrees with the heap-backed run.
func TestShardedMmapMatchesHeap(t *testing.T) {
	g := gen.PowerLaw(500, 2000, 2.5, 9)
	path := filepath.Join(t.TempDir(), "g.nsb2")
	if err := g.WriteBinaryFile(path, 0); err != nil {
		t.Fatalf("WriteBinaryFile: %v", err)
	}
	mg, err := graph.OpenMmap(path)
	if err != nil {
		t.Fatalf("OpenMmap: %v", err)
	}
	defer mg.Close()

	want := FilterRefineSky(g, Options{})
	for _, s := range []int{1, 2, 7, 64} {
		res := ShardedFilterRefineSky(mg.Graph, Options{NoParallelCutoff: true},
			ShardOptions{Shards: s, Workers: 2, Advise: mg.AdviseRange})
		if !EqualSkylines(res.Skyline, want.Skyline) {
			t.Errorf("shards=%d: mmap skyline %v, want %v", s, res.Skyline, want.Skyline)
		}
		if !EqualSkylines(res.Candidates, want.Candidates) {
			t.Errorf("shards=%d: mmap candidates differ", s)
		}
	}
}

// TestShardedIsomorphismInvariance relabels a fixture by a nontrivial
// permutation (degree-descending, the ConvertOptions.Relabel order) and
// checks the sharded skyline of the relabeled graph is exactly the
// image of the original skyline — the engine must depend on structure
// only, whichever fast path (degree-sorted pivots, prefix breaks) the
// labeling enables.
func TestShardedIsomorphismInvariance(t *testing.T) {
	g := gen.PowerLaw(400, 1600, 2.5, 21)
	n := g.N()

	// perm[old] = new id, ordered by descending degree (ties by old id,
	// keeping the permutation deterministic).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Degree(order[a]) > g.Degree(order[b])
	})
	perm := make([]int32, n)
	for newID, old := range order {
		perm[old] = int32(newID)
	}

	b := graph.NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				b.AddEdge(perm[u], perm[v])
			}
		}
	}
	rg := b.Build()
	if !rg.DegreeSorted() {
		t.Fatalf("relabeled graph is not degree-sorted; permutation is broken")
	}

	want := FilterRefineSky(g, Options{})
	wantImage := make([]int32, 0, len(want.Skyline))
	for _, u := range want.Skyline {
		wantImage = append(wantImage, perm[u])
	}
	sort.Slice(wantImage, func(a, b int) bool { return wantImage[a] < wantImage[b] })

	for _, s := range []int{1, 7} {
		res := ShardedFilterRefineSky(rg, Options{NoParallelCutoff: true},
			ShardOptions{Shards: s, Workers: 2})
		if !EqualSkylines(res.Skyline, wantImage) {
			t.Errorf("shards=%d: relabeled skyline %v, want image %v", s, res.Skyline, wantImage)
		}
	}
}

// TestShardedStatsSumAcrossShards is the per-shard stats merge
// regression: Result.Stats must equal the fieldwise sum of
// Result.ShardStats, and the hub/sketch counters must actually be
// counted (not dropped in the merge, the bug this pins).
func TestShardedStatsSumAcrossShards(t *testing.T) {
	g := gen.PowerLaw(600, 3000, 2.5, 3)
	res := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true},
		ShardOptions{Shards: 8, Workers: 2})
	if res.ShardStats == nil {
		t.Fatalf("ShardStats nil on a sharded run")
	}
	var sum Stats
	for _, st := range res.ShardStats {
		sum.add(st)
	}
	if sum != res.Stats {
		t.Fatalf("Stats %+v != sum of ShardStats %+v", res.Stats, sum)
	}
	if res.Stats.SketchProbes == 0 || res.Stats.SketchSkips == 0 {
		t.Fatalf("sketch counters not aggregated: %+v", res.Stats)
	}
	if res.Stats.InclusionTests == 0 {
		t.Fatalf("inclusion tests not aggregated: %+v", res.Stats)
	}
	if res.Stats.CandidateCount != len(res.Candidates) {
		t.Fatalf("CandidateCount %d != |Candidates| %d", res.Stats.CandidateCount, len(res.Candidates))
	}
}

// TestParallelFilterStatsCountHubHits is the companion regression for
// the shared counters: at one worker and at several, the sharded engine
// must fold every shard's HubHits and InclusionTests into Result.Stats
// rather than drop them, and its candidate count must agree with the
// serial filter phase's. The work counters are not compared with the
// serial ones: the fused engine does different work.
func TestParallelFilterStatsCountHubHits(t *testing.T) {
	g := gen.PowerLaw(600, 3000, 2.5, 3)
	serialCand, _, _ := FilterPhase(g, Options{})
	for _, w := range []int{1, 4} {
		res := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: 8, Workers: w})
		var hub, incl int
		for _, st := range res.ShardStats {
			hub += st.HubHits
			incl += st.InclusionTests
		}
		if res.Stats.HubHits == 0 {
			t.Fatalf("workers=%d: no hub hits counted", w)
		}
		if res.Stats.HubHits != hub {
			t.Errorf("workers=%d: HubHits %d, shards sum to %d", w, res.Stats.HubHits, hub)
		}
		if res.Stats.InclusionTests != incl {
			t.Errorf("workers=%d: InclusionTests %d, shards sum to %d", w, res.Stats.InclusionTests, incl)
		}
		if res.Stats.CandidateCount != len(serialCand) {
			t.Errorf("workers=%d: CandidateCount %d, serial filter phase %d", w, res.Stats.CandidateCount, len(serialCand))
		}
	}
}

// TestShardedDeterministicWithOneWorker pins the determinism claim in
// the engine doc: Workers == 1 gives identical Stats (not just results)
// run over run, for any shard count.
func TestShardedDeterministicWithOneWorker(t *testing.T) {
	g := gen.PowerLaw(400, 1600, 2.5, 17)
	for _, s := range []int{1, 2, 7, 64} {
		a := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: s, Workers: 1})
		b := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: s, Workers: 1})
		if a.Stats != b.Stats {
			t.Errorf("shards=%d: stats differ across identical runs:\n%+v\n%+v", s, a.Stats, b.Stats)
		}
		if !EqualSkylines(a.Skyline, b.Skyline) || !EqualSkylines(a.Candidates, b.Candidates) {
			t.Errorf("shards=%d: results differ across identical runs", s)
		}
	}
}

// TestShardedCancellationSuperset cancels mid-run and checks the
// anytime contract: the truncated Skyline and Candidates are supersets
// of the true skyline, and Candidates == Skyline (the partial per-shard
// candidate lists must not leak out).
func TestShardedCancellationSuperset(t *testing.T) {
	g := gen.PowerLaw(3000, 12000, 2.5, 11)
	want := FilterRefineSky(g, Options{})
	inSky := make(map[int32]bool, len(want.Skyline))
	for _, u := range want.Skyline {
		inSky[u] = true
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first checkpoint tick truncates
	res := ShardedFilterRefineSkyCtx(ctx, g, Options{NoParallelCutoff: true},
		ShardOptions{Shards: 16, Workers: 4})
	if !res.Truncated {
		t.Fatalf("cancelled run not marked truncated")
	}
	if res.Err == nil {
		t.Fatalf("truncated run carries no cause")
	}
	if !EqualSkylines(res.Candidates, res.Skyline) {
		t.Fatalf("truncated Candidates != Skyline")
	}
	got := make(map[int32]bool, len(res.Skyline))
	for _, u := range res.Skyline {
		got[u] = true
	}
	for u := range inSky {
		if !got[u] {
			t.Fatalf("truncated skyline dropped true member %d", u)
		}
	}
}

// TestShardedCutoffFallsBackToSerial pins that tiny graphs take the
// serial path (no ShardStats) unless NoParallelCutoff forces sharding.
func TestShardedCutoffFallsBackToSerial(t *testing.T) {
	g := gen.PowerLaw(60, 150, 2.5, 7)
	res := ShardedFilterRefineSky(g, Options{}, ShardOptions{Shards: 4})
	if res.ShardStats != nil {
		t.Fatalf("small graph did not fall back to the serial engine")
	}
	forced := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Shards: 4})
	if forced.ShardStats == nil {
		t.Fatalf("NoParallelCutoff did not force the sharded engine")
	}
	if !EqualSkylines(res.Skyline, forced.Skyline) {
		t.Fatalf("fallback and forced runs disagree")
	}
}

// The tests below pin the sharded engine's parallel execution against
// the serial engine. The sharded path is forced with NoParallelCutoff
// wherever the graph sits below the cutoff, or the comparison would
// pit the serial engine against itself.

// shardedAt runs the sharded engine with the given worker count, forced
// past the small-graph cutoff.
func shardedAt(g *graph.Graph, opts Options, workers int) *Result {
	opts.NoParallelCutoff = true
	return ShardedFilterRefineSky(g, opts, ShardOptions{Workers: workers})
}

func TestParallelMatchesSequential(t *testing.T) {
	r := rng.New(404)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(r, 2+r.Intn(40), 0.1+0.5*r.Float64())
		seq := FilterRefineSky(g, Options{})
		for _, workers := range []int{2, 4, 8} {
			par := shardedAt(g, Options{}, workers)
			if !EqualSkylines(par.Skyline, seq.Skyline) {
				t.Fatalf("workers=%d: sharded %v != sequential %v (edges %v)",
					workers, par.Skyline, seq.Skyline, g.EdgeList())
			}
		}
	}
}

// TestParallelStatsMerged guards against counters being dropped on the
// floor when per-shard Stats are merged after the join: a run over a
// graph with real domination work must report non-zero PairsExamined,
// InclusionTests and HubHits, and the candidate count, a set size
// rather than a work counter, must equal the sequential one exactly.
func TestParallelStatsMerged(t *testing.T) {
	g := gen.PowerLaw(2000, 8000, 2.2, 99)
	seq := FilterRefineSky(g, Options{})
	if seq.Stats.PairsExamined == 0 {
		t.Fatalf("test graph too easy: sequential PairsExamined == 0")
	}
	if g.Hub().Hubs() == 0 {
		t.Fatalf("test graph has no hub bitmaps: HubHits would be checked vacuously")
	}
	for _, workers := range []int{2, 8} {
		par := shardedAt(g, Options{}, workers)
		if par.Stats.PairsExamined == 0 {
			t.Fatalf("workers=%d: PairsExamined lost in merge", workers)
		}
		if par.Stats.InclusionTests == 0 {
			t.Fatalf("workers=%d: InclusionTests lost in merge", workers)
		}
		if par.Stats.HubHits == 0 {
			t.Fatalf("workers=%d: HubHits lost in merge", workers)
		}
		if par.Stats.CandidateCount != seq.Stats.CandidateCount {
			t.Fatalf("workers=%d: candidate count %d != sequential %d",
				workers, par.Stats.CandidateCount, seq.Stats.CandidateCount)
		}
	}
}

// TestParallelFilterPhaseMatches checks the sharded engine's candidate
// set, the output of its fused filter classification, is exactly
// Algorithm 2's at several worker counts.
func TestParallelFilterPhaseMatches(t *testing.T) {
	r := rng.New(808)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(r, 5+r.Intn(60), 0.05+0.4*r.Float64())
		seqCand, _, seqStats := FilterPhase(g, Options{})
		for _, workers := range []int{1, 2, 8} {
			res := shardedAt(g, Options{}, workers)
			if res.Err != nil {
				t.Fatalf("workers=%d: unexpected error: %v", workers, res.Err)
			}
			if !EqualSkylines(res.Candidates, seqCand) {
				t.Fatalf("workers=%d: candidates %v != %v", workers, res.Candidates, seqCand)
			}
			if res.Stats.CandidateCount != seqStats.CandidateCount {
				t.Fatalf("workers=%d: candidate count mismatch", workers)
			}
		}
	}
}

func TestParallelOnPowerLaw(t *testing.T) {
	g := gen.PowerLaw(3000, 9000, 2.2, 17)
	seq := FilterRefineSky(g, Options{})
	par := shardedAt(g, Options{}, 4)
	if !EqualSkylines(par.Skyline, seq.Skyline) {
		t.Fatalf("sharded disagrees on power-law graph: %d vs %d vertices",
			len(par.Skyline), len(seq.Skyline))
	}
	// Dominators recorded by the sharded run must still be valid.
	for v := int32(0); v < int32(g.N()); v++ {
		if d := par.Dominator[v]; d != v && !Dominates(g, d, v) {
			t.Fatalf("sharded run recorded invalid dominator %d for %d", d, v)
		}
	}
}

// TestParallelOptionsRespected: the sharded engine honors KeepIsolated
// and ignores the Bloom and pendant-filter ablations, which change how
// Algorithm 3 gets to its skyline but not the skyline itself.
func TestParallelOptionsRespected(t *testing.T) {
	g := gen.PowerLaw(500, 1500, 2.3, 3)
	for _, opts := range []Options{
		{DisableBloom: true},
		{PendantFilter: true},
		{KeepIsolated: true},
	} {
		seq := FilterRefineSky(g, opts)
		par := shardedAt(g, opts, 4)
		if !EqualSkylines(par.Skyline, seq.Skyline) {
			t.Fatalf("opts %+v: sharded disagrees", opts)
		}
	}
}

func TestParallelEmptyGraphs(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		g := gen.Path(n)
		seq := FilterRefineSky(g, Options{})
		par := shardedAt(g, Options{}, 4)
		if !EqualSkylines(par.Skyline, seq.Skyline) {
			t.Fatalf("n=%d: sharded disagrees", n)
		}
	}
}

// TestParallelCutoffFallsBackToSerial pins the cutoff decision itself:
// Table-I-small graphs route to the serial engine, the ablation flag
// and genuinely large graphs do not.
func TestParallelCutoffFallsBackToSerial(t *testing.T) {
	small := gen.PowerLaw(4500, 13000, 2.3, 7)
	if small.N()+2*small.M() >= parallelCutoff {
		t.Fatalf("test graph grew past the cutoff: n+2m = %d", small.N()+2*small.M())
	}
	if !underParallelCutoff(small, Options{}) {
		t.Errorf("small graph (n+2m = %d) should fall back to serial", small.N()+2*small.M())
	}
	if underParallelCutoff(small, Options{NoParallelCutoff: true}) {
		t.Error("NoParallelCutoff must force the sharded path")
	}
	big := gen.PowerLaw(20000, 60000, 2.3, 7)
	if big.N()+2*big.M() < parallelCutoff {
		t.Fatalf("big test graph under the cutoff: n+2m = %d", big.N()+2*big.M())
	}
	if underParallelCutoff(big, Options{}) {
		t.Error("large graph must keep the sharded path")
	}

	// The fallback must be invisible in results: same skyline, same
	// candidate count, no error.
	seq := FilterRefineSky(small, Options{})
	par := ShardedFilterRefineSky(small, Options{}, ShardOptions{Workers: 8})
	if par.Err != nil || par.Truncated {
		t.Fatalf("fallback run failed: %v", par.Err)
	}
	if !EqualSkylines(par.Skyline, seq.Skyline) {
		t.Fatalf("fallback skyline differs from serial")
	}
	if len(par.Candidates) != len(seq.Candidates) {
		t.Fatalf("fallback candidates %d != serial %d", len(par.Candidates), len(seq.Candidates))
	}
}

// BenchmarkParallelCutoff measures the tradeoff the cutoff encodes, on
// a youtube-sim-sized graph (below the cutoff) that every run sees for
// the first time, as skytree levels and dynsky seeds do:
//
//	Auto    — ShardedFilterRefineSky with the cutoff active (serial fallback)
//	Forced  — the sharded path via the NoParallelCutoff ablation
//	Serial  — the serial engine called directly, the floor Auto should hit
//
// Each iteration gets a fresh copy of the graph, made with the timer
// stopped, so the per-graph hub and sketch indexes are built inside the
// timed run. Forced pulling clearly ahead of Auto here means the cutoff
// should come down.
func BenchmarkParallelCutoff(b *testing.B) {
	g := gen.PowerLaw(4500, 13000, 2.3, 7)
	if g.N()+2*g.M() >= parallelCutoff {
		b.Fatalf("benchmark graph grew past the cutoff: n+2m = %d", g.N()+2*g.M())
	}
	cold := func(b *testing.B, run func(*graph.Graph)) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			fresh := g.Patch(nil, nil, g.M())
			b.StartTimer()
			run(fresh)
		}
	}
	b.Run("Auto", func(b *testing.B) {
		cold(b, func(h *graph.Graph) { ShardedFilterRefineSky(h, Options{}, ShardOptions{Workers: 8}) })
	})
	b.Run("Forced", func(b *testing.B) {
		cold(b, func(h *graph.Graph) {
			ShardedFilterRefineSky(h, Options{NoParallelCutoff: true}, ShardOptions{Workers: 8})
		})
	})
	b.Run("Serial", func(b *testing.B) {
		cold(b, func(h *graph.Graph) { FilterRefineSky(h, Options{}) })
	})
}
