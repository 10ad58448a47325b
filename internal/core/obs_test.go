package core

import (
	"testing"

	"neisky/internal/graph"
	"neisky/internal/obs"
)

// obsGraph is a small random-ish graph with enough structure that both
// phases do real work (dominated vertices, bloom probes).
func obsGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(64)
	for u := 0; u < 63; u++ {
		b.AddEdge(int32(u), int32(u+1))
		b.AddEdge(int32(u), int32((u*7+3)%64))
		if u%3 == 0 {
			b.AddEdge(int32(u), int32((u*5+11)%64))
		}
	}
	return b.Build()
}

// TestFilterRefinePublishesObs pins the observability contract of the
// skyline hot path: with a recorder installed, one FilterRefineSky run
// yields per-phase stage timers and work counters that agree with the
// returned Stats; with recording disabled nothing is published.
func TestFilterRefinePublishesObs(t *testing.T) {
	g := obsGraph(t)
	old := obs.Swap(obs.New())
	defer obs.Swap(old)
	r := obs.Get()

	res := FilterRefineSky(g, Options{})
	snap := r.Snapshot()

	for _, timer := range []string{"core.filter", "core.refine"} {
		st := snap.Timers[timer]
		if st.Count != 1 || st.TotalNs <= 0 {
			t.Fatalf("timer %s = %+v, want one timed run", timer, st)
		}
	}
	wantCounters := map[string]int64{
		"core.filter.inclusion_tests": 0, // value checked below, key presence here
		"core.refine.pairs_examined":  0,
		"core.refine.bloom.probes":    0,
	}
	for name := range wantCounters {
		if _, ok := snap.Counters[name]; !ok {
			t.Fatalf("counter %s missing from snapshot: %v", name, snap.Counters)
		}
	}
	if got := snap.Counters["core.filter.candidates"]; got != int64(res.Stats.CandidateCount) {
		t.Fatalf("core.filter.candidates = %d, want %d", got, res.Stats.CandidateCount)
	}
	if got := snap.Counters["core.refine.pairs_examined"]; got != int64(res.Stats.PairsExamined) {
		t.Fatalf("core.refine.pairs_examined = %d, want %d", got, res.Stats.PairsExamined)
	}
	total := snap.Counters["core.filter.inclusion_tests"] + snap.Counters["core.refine.inclusion_tests"]
	if total != int64(res.Stats.InclusionTests) {
		t.Fatalf("inclusion tests filter+refine = %d, want Stats total %d", total, res.Stats.InclusionTests)
	}
	if got := snap.Counters["core.refine.bloom.probes"]; got != int64(res.Stats.BloomProbes) {
		t.Fatalf("bloom probes = %d, want %d", got, res.Stats.BloomProbes)
	}

	// The sharded engine runs both phases in one pass, so it publishes
	// one core.shard timer, which the serving benchmark's trace reads,
	// and its counters under the same prefix.
	r.Reset()
	sh := ShardedFilterRefineSky(g, Options{NoParallelCutoff: true}, ShardOptions{Workers: 4})
	snap = r.Snapshot()
	if st := snap.Timers["core.shard"]; st.Count != 1 || st.TotalNs <= 0 {
		t.Fatalf("sharded run timers = %v", snap.Timers)
	}
	if got, ok := snap.Counters["core.shard.pairs_examined"]; !ok || got != int64(sh.Stats.PairsExamined) {
		t.Fatalf("core.shard.pairs_examined = %d (present %v), want %d", got, ok, sh.Stats.PairsExamined)
	}

	// Disabled: the same run must leave a fresh recorder untouched.
	obs.Swap(nil)
	FilterRefineSky(g, Options{})
	probe := obs.New()
	obs.Swap(probe)
	FilterRefineSky(g, Options{DisableHubIndex: true}) // any run publishes again
	if len(probe.Snapshot().Counters) == 0 {
		t.Fatal("re-enabled recorder saw no counters")
	}
}

// TestStatsBloomProbesCounted checks the new probe counter feeds the
// hit/miss arithmetic: probes ≥ bit rejects + false positives.
func TestStatsBloomProbesCounted(t *testing.T) {
	g := obsGraph(t)
	res := FilterRefineSky(g, Options{DisableHubIndex: true})
	s := res.Stats
	if s.BloomProbes == 0 {
		t.Fatal("expected bloom probes on the no-hub path")
	}
	if s.BloomProbes < s.BloomBitRejects+s.BloomFalsePos {
		t.Fatalf("probes %d < bit rejects %d + false pos %d",
			s.BloomProbes, s.BloomBitRejects, s.BloomFalsePos)
	}
	off := FilterRefineSky(g, Options{DisableBloom: true})
	if off.Stats.BloomProbes != 0 {
		t.Fatalf("DisableBloom still probed %d times", off.Stats.BloomProbes)
	}
}
