package bench

import (
	"context"
	"encoding/json"
	"io"
	"runtime"

	"neisky/internal/centrality"
	"neisky/internal/core"
	"neisky/internal/dataset"
	"neisky/internal/graph"
	"neisky/internal/obs"
)

// BenchRow is one machine-readable measurement, the shape CI diffs
// between commits. The skyline rows fill the first six fields; the
// centrality rows additionally record the greedy parameters (k, gain
// calls) and the engine configuration (workers, batch on/off). With
// Config.Metrics set, every row also carries the per-stage
// timer/counter snapshot of one instrumented run (internal/obs
// flattened metrics: filter vs. refine time, bloom probe hit/miss, BFS
// rounds, ...), so perf PRs can cite stage-level evidence instead of
// wall-clock alone.
type BenchRow struct {
	Algo          string           `json:"algo"`
	Dataset       string           `json:"dataset"`
	N             int              `json:"n"`
	M             int              `json:"m"`
	NsPerOp       int64            `json:"ns_per_op"`
	BytesPerOp    uint64           `json:"bytes_per_op"`
	K             int              `json:"k,omitempty"`
	GainCalls     int              `json:"gain_calls,omitempty"`
	Workers       int              `json:"workers,omitempty"`
	Batch         string           `json:"batch,omitempty"`   // "on" / "off"
	Source        string           `json:"source,omitempty"`  // "heap" / "mmap" (snapshot rows)
	Relabel       string           `json:"relabel,omitempty"` // "on" / "off" (snapshot rows)
	ConvertNs     int64            `json:"convert_ns,omitempty"`
	Queries       int              `json:"queries,omitempty"`        // layered-index query rows (BENCH_6)
	Shards        int              `json:"shards,omitempty"`         // sharded-engine rows (BENCH_5)
	SketchProbes  int64            `json:"sketch_probes,omitempty"`  // register-sketch pre-checks issued
	SketchSkips   int64            `json:"sketch_skips,omitempty"`   // pairs discarded by the sketch
	Layers        int              `json:"layers,omitempty"`         // layered-index rows (BENCH_6)
	Ops           int              `json:"ops,omitempty"`            // maintenance rows: update batch size
	PairsExamined int64            `json:"pairs_examined,omitempty"` // subset rows: exact dominance scans
	WitnessHits   int64            `json:"witness_hits,omitempty"`   // subset rows: parent-witness early exits
	Metrics       map[string]int64 `json:"metrics,omitempty"`
}

// captureMetrics runs fn once under a fresh, isolated process recorder
// and returns its flattened metrics, restoring the previous recorder
// (usually nil: the timed runs above stay on the no-op fast path).
func captureMetrics(fn func()) map[string]int64 {
	old := obs.Swap(obs.New())
	fn()
	m := obs.Get().Metrics()
	obs.Swap(old)
	return m
}

// jsonAlgos are the contenders tracked in the JSON benchmark: the
// bitset-kernel hot path, the legacy merge path it replaced (the
// DisableHubIndex ablation, ≈ the pre-index baseline), and the sharded
// variant at 8 workers.
var jsonAlgos = []struct {
	name string
	run  func(context.Context, *graph.Graph) *core.Result
}{
	{"FilterRefineSky", func(ctx context.Context, g *graph.Graph) *core.Result {
		return core.FilterRefineSkyCtx(ctx, g, core.Options{})
	}},
	{"FilterRefineSky-nohub", func(ctx context.Context, g *graph.Graph) *core.Result {
		return core.FilterRefineSkyCtx(ctx, g, core.Options{DisableHubIndex: true})
	}},
	{"ShardedFilterRefineSky-8", func(ctx context.Context, g *graph.Graph) *core.Result {
		return core.ShardedFilterRefineSkyCtx(ctx, g, core.Options{}, core.ShardOptions{Workers: 8})
	}},
}

// jsonDatasets covers the Table I stand-ins plus the two large graphs
// the acceptance speedup is measured on.
func jsonDatasets() []string {
	return append(dataset.Five(), "livejournal-sim", "orkut-sim")
}

// centralityVariants lists the greedy-engine contenders of the JSON
// benchmark: the first-round gain sweep (the paper's Exp-4/Exp-5 hot
// kernel — every candidate evaluated against S = ∅) scalar vs batched vs
// batched+parallel, and the full engineered greedy at k = 10 on both
// engines. workers is the resolved parallel worker count.
func centralityVariants(workers int) []struct {
	name    string
	k       int
	workers int
	batch   string
	opts    centrality.Options
} {
	return []struct {
		name    string
		k       int
		workers int
		batch   string
		opts    centrality.Options
	}{
		{"FirstRoundSweep-scalar", 1, 1, "off",
			centrality.Options{DisableBatchBFS: true}},
		{"FirstRoundSweep-batch", 1, 1, "on",
			centrality.Options{Workers: 1}},
		{"FirstRoundSweep-batch-par", 1, workers, "on",
			centrality.Options{Workers: workers}},
		{"GreedyPP-scalar", 10, 1, "off",
			centrality.Options{Lazy: true, PrunedBFS: true, DisableBatchBFS: true}},
		{"GreedyPP-batch-par", 10, workers, "on",
			centrality.Options{Lazy: true, PrunedBFS: true, Workers: workers}},
	}
}

// centralityDatasets are the graphs the scalar-vs-batched acceptance
// speedup is measured on.
func centralityDatasets() []string { return []string{"livejournal-sim", "orkut-sim"} }

// RunBenchJSON measures every (algo, dataset) pair and writes the rows
// as a JSON array to w. Per skyline pair: one untimed warm-up run (which
// also amortizes the lazy hub-index build, as any real pipeline would),
// then ns_per_op is the best of three timed runs and bytes_per_op a
// single allocation-counted run. The centrality rows skip the warm-up —
// the BFS engines build no lazy index — and use the same best-of-three
// rule.
//
// A cancellable cfg.Ctx bounds the run: the engines observe the
// cancellation mid-row (their checkpoints poll it), the contaminated
// in-flight measurement is discarded, and every complete row collected
// so far is still flushed to w before returning.
func RunBenchJSON(w io.Writer, cfg Config) error {
	cfg.fill()
	iters := 3
	if cfg.Quick {
		iters = 1
	}
	ctx := cfg.Ctx
	var rows []BenchRow
	for _, name := range jsonDatasets() {
		if cfg.stopped() {
			break
		}
		g, err := dataset.Load(name, cfg.Scale)
		if err != nil {
			return flushRows(w, rows, err)
		}
		for _, a := range jsonAlgos {
			a.run(ctx, g) // warm-up
			best := int64(-1)
			for i := 0; i < iters; i++ {
				d := timed(func() { a.run(ctx, g) }).Nanoseconds()
				if best < 0 || d < best {
					best = d
				}
			}
			bytes := allocated(func() { a.run(ctx, g) })
			if cfg.stopped() {
				break // the timings above raced the cancellation: discard
			}
			row := BenchRow{
				Algo:       a.name,
				Dataset:    name,
				N:          g.N(),
				M:          g.M(),
				NsPerOp:    best,
				BytesPerOp: bytes,
			}
			if cfg.Metrics {
				row.Metrics = captureMetrics(func() { a.run(ctx, g) })
			}
			rows = append(rows, row)
			runtime.GC()
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	for _, name := range centralityDatasets() {
		if cfg.stopped() {
			break
		}
		g, err := dataset.Load(name, cfg.Scale)
		if err != nil {
			return flushRows(w, rows, err)
		}
		for _, v := range centralityVariants(workers) {
			var res *centrality.Result
			best := int64(-1)
			for i := 0; i < iters; i++ {
				d := timed(func() {
					res = centrality.GreedyCtx(ctx, g, v.k, centrality.CLOSENESS, v.opts)
				}).Nanoseconds()
				if best < 0 || d < best {
					best = d
				}
			}
			bytes := allocated(func() { centrality.GreedyCtx(ctx, g, v.k, centrality.CLOSENESS, v.opts) })
			if cfg.stopped() {
				break
			}
			row := BenchRow{
				Algo:       v.name,
				Dataset:    name,
				N:          g.N(),
				M:          g.M(),
				NsPerOp:    best,
				BytesPerOp: bytes,
				K:          v.k,
				GainCalls:  res.GainCalls,
				Workers:    v.workers,
				Batch:      v.batch,
			}
			if cfg.Metrics {
				row.Metrics = captureMetrics(func() {
					centrality.GreedyCtx(ctx, g, v.k, centrality.CLOSENESS, v.opts)
				})
			}
			rows = append(rows, row)
			runtime.GC()
		}
	}
	return flushRows(w, rows, nil)
}

// flushRows writes the collected rows even when the run ends early, so
// a timeout or ^C never loses completed measurements. A run error takes
// precedence over an encoding error in the return value.
func flushRows(w io.Writer, rows []BenchRow, runErr error) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil && runErr == nil {
		return err
	}
	return runErr
}
