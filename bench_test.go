// Benchmarks mirroring the paper's evaluation section. Each table and
// figure has a corresponding Benchmark* here driving the same code paths
// as cmd/nsbench, at sizes suitable for `go test -bench=.`; the full
// paper-scale sweeps live behind `go run ./cmd/nsbench -exp all`.
package neisky_test

import (
	"testing"

	"neisky"
	"neisky/internal/centrality"
	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/dataset"
	"neisky/internal/gen"
	"neisky/internal/scjoin"
)

// benchGraph loads a dataset at reduced scale, failing the benchmark on
// error.
func benchGraph(b *testing.B, name string, scale float64) *neisky.Graph {
	b.Helper()
	g, err := neisky.LoadDataset(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTable1Stats covers Table I: building the stand-ins and
// computing their statistics.
func BenchmarkTable1Stats(b *testing.B) {
	for _, name := range dataset.Five() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g := benchGraph(b, name, 0.3)
				_ = g.Stats()
			}
		})
	}
}

// BenchmarkFig3Runtime covers Fig 3 (Exp-1): the five skyline algorithms
// on a representative dataset.
func BenchmarkFig3Runtime(b *testing.B) {
	g := benchGraph(b, "youtube-sim", 1)
	algos := []struct {
		name string
		run  func()
	}{
		{"LC-Join", func() { scjoin.Skyline(g, core.Options{}) }},
		{"TT-Join", func() { scjoin.TrieSkyline(g, core.Options{}) }},
		{"BaseSky", func() { core.BaseSky(g, core.Options{}) }},
		{"Base2Hop", func() { core.Base2Hop(g, core.Options{}) }},
		{"BaseCSet", func() { core.BaseCSet(g, core.Options{}) }},
		{"FilterRefineSky", func() { core.FilterRefineSky(g, core.Options{}) }},
	}
	for _, a := range algos {
		b.Run(a.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a.run()
			}
		})
	}
}

// BenchmarkFig3RuntimeLarge tracks the hub-bitmap hot path on the two
// large stand-ins the acceptance speedup is measured on: the bitset
// kernels vs the legacy merge path (DisableHubIndex) vs the sharded
// filter+refine at 8 workers.
func BenchmarkFig3RuntimeLarge(b *testing.B) {
	for _, name := range []string{"livejournal-sim", "orkut-sim"} {
		g := benchGraph(b, name, 1)
		core.FilterRefineSky(g, core.Options{}) // build the hub index outside the timer
		variants := []struct {
			name string
			run  func()
		}{
			{"FilterRefineSky", func() { core.FilterRefineSky(g, core.Options{}) }},
			{"FilterRefineSky-nohub", func() { core.FilterRefineSky(g, core.Options{DisableHubIndex: true}) }},
			{"Sharded-8", func() { core.ShardedFilterRefineSky(g, core.Options{}, core.ShardOptions{Workers: 8}) }},
		}
		for _, v := range variants {
			b.Run(name+"/"+v.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					v.run()
				}
			})
		}
	}
}

// BenchmarkFig4Memory covers Fig 4 (Exp-2): run with -benchmem and read
// the B/op column — Base2Hop and LC-Join allocate far more than the
// filter-refine framework.
func BenchmarkFig4Memory(b *testing.B) {
	g := benchGraph(b, "notredame-sim", 1)
	b.Run("LC-Join", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			scjoin.Skyline(g, core.Options{})
		}
	})
	b.Run("Base2Hop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Base2Hop(g, core.Options{})
		}
	})
	b.Run("FilterRefineSky", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{})
		}
	})
}

// BenchmarkFig5SkylineSizes covers Fig 5 (Exp-3): skyline extraction on
// each Table I stand-in.
func BenchmarkFig5SkylineSizes(b *testing.B) {
	for _, name := range dataset.Five() {
		g := benchGraph(b, name, 0.5)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := core.FilterRefineSky(g, core.Options{})
				if len(res.Skyline) == 0 {
					b.Fatal("empty skyline")
				}
			}
		})
	}
}

// BenchmarkFig6Synthetic covers Fig 6 (Exp-3): ER and power-law
// generation plus skyline computation.
func BenchmarkFig6Synthetic(b *testing.B) {
	b.Run("ER", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := gen.ERDeltaP(20000, 0.6, 1)
			core.FilterRefineSky(g, core.Options{})
		}
	})
	b.Run("PowerLaw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := gen.PowerLaw(20000, 30000, 3.0, 1)
			core.FilterRefineSky(g, core.Options{})
		}
	})
}

// BenchmarkFig7GroupCloseness covers Fig 7 (Exp-4): Greedy++-style vs
// NeiSkyGC, k=10.
func BenchmarkFig7GroupCloseness(b *testing.B) {
	g := benchGraph(b, "notredame-sim", 1)
	sky := core.FilterRefineSky(g, core.Options{})
	b.Run("GreedyPP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.GreedyPP(g, 10)
		}
	})
	b.Run("NeiSkyGC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.NeiSkyGCWithSkyline(g, 10, sky.Skyline)
		}
	})
}

// BenchmarkFig8GroupHarmonic covers Fig 8 (Exp-5).
func BenchmarkFig8GroupHarmonic(b *testing.B) {
	g := benchGraph(b, "notredame-sim", 1)
	sky := core.FilterRefineSky(g, core.Options{})
	b.Run("GreedyH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.GreedyH(g, 10)
		}
	})
	b.Run("NeiSkyGH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.NeiSkyGHWithSkyline(g, 10, sky.Skyline)
		}
	})
}

// BenchmarkFig9TopkClique covers Fig 9 (Exp-6): top-k maximum cliques,
// k=3.
func BenchmarkFig9TopkClique(b *testing.B) {
	g := benchGraph(b, "pokec-sim", 0.5)
	b.Run("BaseTopkMCC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clique.BaseTopkMCC(g, 3)
		}
	})
	b.Run("NeiSkyTopkMCC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clique.NeiSkyTopkMCC(g, 3)
		}
	})
}

// BenchmarkFig10Scalability covers Fig 10 (Exp-7): skyline computation
// at growing graph sizes.
func BenchmarkFig10Scalability(b *testing.B) {
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		g := benchGraph(b, "livejournal-sim", frac)
		b.Run("BaseSky/"+fracName(frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BaseSky(g, core.Options{})
			}
		})
		b.Run("FilterRefineSky/"+fracName(frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.FilterRefineSky(g, core.Options{})
			}
		})
	}
}

func fracName(f float64) string {
	switch {
	case f <= 0.25:
		return "25pct"
	case f <= 0.5:
		return "50pct"
	default:
		return "100pct"
	}
}

// BenchmarkFig11GroupClosenessScale covers Fig 11 (Exp-7) at one size.
func BenchmarkFig11GroupClosenessScale(b *testing.B) {
	g := benchGraph(b, "livejournal-sim", 0.2)
	sky := core.FilterRefineSky(g, core.Options{})
	b.Run("GreedyPP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.GreedyPP(g, 5)
		}
	})
	b.Run("NeiSkyGC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.NeiSkyGCWithSkyline(g, 5, sky.Skyline)
		}
	})
}

// BenchmarkFig12GroupHarmonicScale covers Fig 12 (Exp-7) at one size.
func BenchmarkFig12GroupHarmonicScale(b *testing.B) {
	g := benchGraph(b, "livejournal-sim", 0.2)
	sky := core.FilterRefineSky(g, core.Options{})
	b.Run("GreedyH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.GreedyH(g, 5)
		}
	})
	b.Run("NeiSkyGH", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.NeiSkyGHWithSkyline(g, 5, sky.Skyline)
		}
	})
}

// BenchmarkTable2Clique covers Table II (Exp-7): MC-BRB-style vs
// NeiSkyMC (search only; skyline precomputed as at paper scale).
func BenchmarkTable2Clique(b *testing.B) {
	g := benchGraph(b, "livejournal-sim", 0.5)
	sky := core.FilterRefineSky(g, core.Options{})
	b.Run("MC-BRB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clique.BaseMCC(g)
		}
	})
	b.Run("NeiSkyMC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clique.NeiSkyMCWithSkyline(g, sky.Skyline)
		}
	})
}

// BenchmarkFig13CaseStudy covers Fig 13: the tiny case-study graphs.
func BenchmarkFig13CaseStudy(b *testing.B) {
	for _, name := range []string{"karate", "bombing-sim"} {
		g := benchGraph(b, name, 1)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.FilterRefineSky(g, core.Options{})
			}
		})
	}
}

// --- Ablations for the design choices DESIGN.md calls out ---

// BenchmarkAblationFilterVariants: exact edge-constrained filter vs the
// literal (pendant-only) reading of Algorithm 2.
func BenchmarkAblationFilterVariants(b *testing.B) {
	g := benchGraph(b, "wikitalk-sim", 1)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{})
		}
	})
	b.Run("pendant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{PendantFilter: true})
		}
	})
}

// BenchmarkAblationBloom: Bloom filters on vs off in the refine phase.
func BenchmarkAblationBloom(b *testing.B) {
	g := benchGraph(b, "wikitalk-sim", 1)
	b.Run("bloom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{})
		}
	})
	b.Run("noBloom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{DisableBloom: true})
		}
	})
}

// BenchmarkAblationTwoHopScan: min-degree pivot vs the paper-literal
// full enumeration of 2-hop dominator candidates.
func BenchmarkAblationTwoHopScan(b *testing.B) {
	g := benchGraph(b, "dblp-sim", 1)
	b.Run("pivot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{})
		}
	})
	b.Run("fullScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.FilterRefineSky(g, core.Options{FullTwoHopScan: true})
		}
	})
}

// BenchmarkAblationLazyGreedy: plain vs lazy greedy (both pruned-BFS).
func BenchmarkAblationLazyGreedy(b *testing.B) {
	g := benchGraph(b, "notredame-sim", 0.4)
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.Greedy(g, 5, centrality.CLOSENESS, centrality.Options{PrunedBFS: true})
		}
	})
	b.Run("lazy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.Greedy(g, 5, centrality.CLOSENESS, centrality.Options{Lazy: true, PrunedBFS: true})
		}
	})
}

// BenchmarkAblationPrunedBFS: full-BFS vs pruned-BFS gain evaluation
// (both lazy).
func BenchmarkAblationPrunedBFS(b *testing.B) {
	g := benchGraph(b, "notredame-sim", 0.4)
	b.Run("fullBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.Greedy(g, 5, centrality.CLOSENESS, centrality.Options{Lazy: true})
		}
	})
	b.Run("prunedBFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.Greedy(g, 5, centrality.CLOSENESS, centrality.Options{Lazy: true, PrunedBFS: true})
		}
	})
}

// BenchmarkAblationNeiSkyMCVariants: hybrid degeneracy-skip NeiSkyMC vs
// the literal Algorithm 5 ego-network search.
func BenchmarkAblationNeiSkyMCVariants(b *testing.B) {
	g := benchGraph(b, "pokec-sim", 0.5)
	sky := core.FilterRefineSky(g, core.Options{})
	b.Run("hybrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clique.NeiSkyMCWithSkyline(g, sky.Skyline)
		}
	})
	b.Run("ego", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			clique.NeiSkyMCEgo(g, sky.Skyline)
		}
	})
}

// BenchmarkExample2GainCalls pins the Example 2 accounting as a
// benchmark over the Fig 1 graph.
func BenchmarkExample2GainCalls(b *testing.B) {
	g := dataset.Fig1()
	sky := core.FilterRefineSky(g, core.Options{})
	b.Run("BaseGC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.Greedy(g, 3, centrality.CLOSENESS, centrality.Options{})
		}
	})
	b.Run("NeiSkyGC", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			centrality.Greedy(g, 3, centrality.CLOSENESS,
				centrality.Options{Candidates: sky.Skyline})
		}
	})
}
