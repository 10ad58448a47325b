package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/serve"
	"neisky/internal/skytree"
	"neisky/internal/wal"
)

// The traced run times the program's layer functions from outside, in
// this process, on the inputs the traced window sent over HTTP. Each
// call is one span, tagged with the id of the request whose inputs it
// used ("r<n>" for reads, "w<n>" for swap batches, "-" for calls tied to
// no request). The calls are leaves, so a span's self time is its
// duration.

// Replay caps per class keep a traced run inside its time budget.
const (
	replayHeavy = 8   // whole-graph reads (about 0.1-0.2 s each)
	replayLight = 200 // index reads (microseconds each)
	replaySwaps = 4   // swap batches (about 0.7 s each, both paths)
	repeats     = 3   // calls per input-independent layer function
)

// shardWorkers are the worker counts of the sharded-engine sweep.
var shardWorkers = []int{1, 2}

type span struct {
	Req     string `json:"req"`
	Class   string `json:"class"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

// do runs fn as one span and returns its duration.
func (tr *tracer) do(req, class, layer string, fn func()) time.Duration {
	s := time.Now()
	fn()
	e := time.Now()
	tr.spans = append(tr.spans, span{req, class, layer, s.Sub(tr.t0).Nanoseconds(), e.Sub(tr.t0).Nanoseconds()})
	return e.Sub(s)
}

// covered is the summed span time of one request.
func (tr *tracer) covered(req string) time.Duration {
	var sum int64
	for _, s := range tr.spans {
		if s.Req == req {
			sum += s.EndNs - s.StartNs
		}
	}
	return time.Duration(sum)
}

func medMS(ds []time.Duration) float64 { return durMedian(ds) * 1e3 }
func medUS(ds []time.Duration) float64 { return durMedian(ds) * 1e6 }

// byClass returns up to limit traced reads of class, in stream order.
func byClass(reads []sample, class string, limit int) []sample {
	var out []sample
	for _, s := range reads {
		if s.rq.class == class && s.ok && len(out) < limit {
			out = append(out, s)
		}
	}
	return out
}

// traceLayers fills out with the per-layer metrics. readD covers the
// traced window; writeD the interval of the swaps in writes; wholeD
// both.
func (r *runner) traceLayers(out map[string]metric, untraced, traced passResult, writes []writeSample, readD, writeD, wholeD delta) error {
	tr := &tracer{t0: time.Now()}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	reads := traced.reads
	nr, nw := float64(len(reads)), float64(len(writes))

	// serve: the daemon's own timers and memstats over the interval.
	var serverNs, latMS, bytes float64
	for _, c := range readClasses {
		put("serve.server_ms."+c, "ms", readD.timerMS("serve."+c+".latency"))
		serverNs += readD.get("serve." + c + ".latency.ns")
	}
	put("serve.server_ms.swap", "ms", writeD.timerMS("serve.swap.latency"))
	for _, s := range reads {
		latMS += ms(s.lat)
		bytes += float64(s.bytes)
	}
	put("serve.wire_ms", "ms", ratio(latMS-serverNs/1e6, nr))
	put("serve.resp_kb_per_read", "KB", ratio(bytes/1024, nr))
	put("serve.alloc_kb_per_read", "KB", ratio(readD.alloc/1024, nr))
	put("serve.gc_per_1k_reads", "count", ratio(readD.gc*1000, nr))
	put("serve.alloc_mb_per_write", "MB", ratio(writeD.alloc/(1<<20), nw))
	put("core.engine_runs_per_read", "count", ratio(readD.get("core.refine.count")+readD.get("core.shard.count"), nr))
	put("core.engine_ms_per_read", "ms",
		ratio((readD.get("core.filter.ns")+readD.get("core.refine.ns")+readD.get("core.shard.ns"))/1e6, nr))
	put("skytree.builds_per_epoch", "count", ratio(wholeD.get("skytree.build.count"), nw+1))
	put("skytree.dirty_per_op", "count", ratio(writeD.get("skytree.update.dirty"), nw*batchOps))
	put("wal.fsyncs_per_write", "count", ratio(writeD.get("wal.fsync"), nw))
	put("wal.bytes_per_op", "B", ratio(writeD.get("wal.append.bytes"), writeD.get("wal.append.ops")))

	// graph
	var loads, sketches []time.Duration
	for i := 0; i < repeats; i++ {
		var g *graph.Graph
		var err error
		loads = append(loads, tr.do("-", "", "graph.LoadBinaryFile", func() { g, err = graph.LoadBinaryFile(r.snapPath) }))
		if err != nil {
			return err
		}
		sketches = append(sketches, tr.do("-", "", "graph.Sketches", func() { g.Sketches() }))
	}
	put("graph.load_ms", "ms", medMS(loads))
	put("graph.sketches_ms", "ms", medMS(sketches))

	// core: Algorithm 3 on the graphs the whole-graph reads were answered
	// from, and the sharded engine's worker sweep on the snapshot.
	var frs []time.Duration
	for _, c := range []string{clsSkyline, clsDominators} {
		for _, s := range byClass(reads, c, replayHeavy) {
			g := r.truthAt(s.epoch).g
			frs = append(frs, tr.do(reqID(s), c, "core.FilterRefineSky", func() { core.FilterRefineSky(g, core.Options{}) }))
		}
	}
	for len(frs) < repeats {
		frs = append(frs, tr.do("-", "", "core.FilterRefineSky", func() { core.FilterRefineSky(r.g0, core.Options{}) }))
	}
	put("core.filter_refine_ms", "ms", medMS(frs))
	var stats core.Stats
	for _, w := range shardWorkers {
		var runs []time.Duration
		for i := 0; i < repeats; i++ {
			var res *core.Result
			runs = append(runs, tr.do("-", "", fmt.Sprintf("core.ShardedFilterRefineSky.w%d", w), func() {
				res = core.ShardedFilterRefineSky(r.g0, core.Options{}, core.ShardOptions{Workers: w})
			}))
			stats = res.Stats
		}
		put(fmt.Sprintf("core.sharded_ms.w%d", w), "ms", medMS(runs))
	}
	put("core.pairs_examined", "count", float64(stats.PairsExamined))
	put("core.inclusion_tests", "count", float64(stats.InclusionTests))
	put("core.hub_hits", "count", float64(stats.HubHits))
	put("core.sketch_probes", "count", float64(stats.SketchProbes))
	put("core.sketch_skip_ratio", "ratio", ratio(float64(stats.SketchSkips), float64(stats.SketchProbes)))

	// skytree: index build, the three index reads on their inputs.
	var builds []time.Duration
	for i := 0; i < repeats; i++ {
		builds = append(builds, tr.do("-", "", "skytree.Build", func() { skytree.Build(r.g0, skytree.BuildOptions{}) }))
	}
	put("skytree.build_ms", "ms", medMS(builds))
	var topk, explain, subset []time.Duration
	var pairs, hits float64
	for _, s := range byClass(reads, clsLayers, replayLight) {
		t := r.truthAt(s.epoch).tree
		topk = append(topk, tr.do(reqID(s), clsLayers, "skytree.Tree.TopK", func() { t.TopK(layersK); t.LayerSizes() }))
	}
	for _, s := range byClass(reads, clsExplain, replayLight) {
		t := r.truthAt(s.epoch).tree
		explain = append(explain, tr.do(reqID(s), clsExplain, "skytree.Tree.Explain", func() { t.Explain(s.rq.v) }))
	}
	subs := byClass(reads, clsSubset, replayLight)
	for _, s := range subs {
		t := r.truthAt(s.epoch)
		var res *skytree.SubsetResult
		subset = append(subset, tr.do(reqID(s), clsSubset, "skytree.SubsetSkyline", func() {
			res = skytree.SubsetSkyline(t.g, t.tree, r.st.subsets[s.rq.sub])
		}))
		pairs += float64(res.PairsExamined)
		hits += float64(res.WitnessHits)
	}
	t0 := r.truthAt(1)
	for len(topk) < replayLight {
		topk = append(topk, tr.do("-", "", "skytree.Tree.TopK", func() { t0.tree.TopK(layersK); t0.tree.LayerSizes() }))
	}
	for i := 0; len(explain) < replayLight; i++ {
		v := int32(i * 997 % t0.g.N())
		explain = append(explain, tr.do("-", "", "skytree.Tree.Explain", func() { t0.tree.Explain(v) }))
	}
	for i := 0; len(subset) < repeats; i++ {
		var res *skytree.SubsetResult
		subset = append(subset, tr.do("-", "", "skytree.SubsetSkyline", func() {
			res = skytree.SubsetSkyline(t0.g, t0.tree, r.st.subsets[i])
		}))
		pairs += float64(res.PairsExamined)
		hits += float64(res.WitnessHits)
	}
	put("skytree.topk_us", "us", medUS(topk))
	put("skytree.explain_us", "us", medUS(explain))
	put("skytree.subset_us", "us", medUS(subset))
	put("skytree.subset_pairs_examined", "count", pairs/float64(len(subset)))
	put("skytree.subset_witness_hits", "count", hits/float64(len(subset)))

	// clique
	var mcs []time.Duration
	var nodes []float64
	for _, s := range byClass(reads, clsClique, replayHeavy) {
		g := r.truthAt(s.epoch).g
		var res *clique.Result
		mcs = append(mcs, tr.do(reqID(s), clsClique, "clique.NeiSkyMC", func() { res = clique.NeiSkyMC(g) }))
		nodes = append(nodes, float64(res.Nodes))
	}
	for len(mcs) < repeats {
		var res *clique.Result
		mcs = append(mcs, tr.do("-", "", "clique.NeiSkyMC", func() { res = clique.NeiSkyMC(r.g0) }))
		nodes = append(nodes, float64(res.Nodes))
	}
	put("clique.neiskymc_ms", "ms", medMS(mcs))
	put("clique.bb_nodes", "count", median(nodes))

	if err := r.traceWrites(tr, put, writes); err != nil {
		return err
	}

	// Coverage: the share of each request's client latency its spans
	// account for, median over the replayed requests of a class.
	for _, c := range readClasses {
		var shares []float64
		for _, s := range byClass(reads, c, replayLight) {
			if cov := tr.covered(reqID(s)); cov > 0 {
				shares = append(shares, cov.Seconds()/s.lat.Seconds())
			}
		}
		put("trace.coverage."+c, "ratio", medianOr0(shares))
	}
	var shares []float64
	for _, ws := range writes[:min(replaySwaps, len(writes))] {
		if cov := tr.covered(swapID(ws.batch)); cov > 0 {
			shares = append(shares, cov.Seconds()/ws.acked.Sub(ws.sent).Seconds())
		}
	}
	put("trace.coverage.swap", "ratio", medianOr0(shares))
	p50u, p50t := percentile(latenciesMS(untraced.reads), 50), percentile(latenciesMS(reads), 50)
	put("trace.overhead_pct", "%", 100*ratio(p50t-p50u, p50u))

	b, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("spans-%s-%d.json", r.cfg.workload, r.cfg.seed)
	return os.WriteFile(filepath.Join(r.cfg.work, name), b, 0o644)
}

// traceWrites replays the first swaps of writes through both batch-swap
// paths (skytree carry-over and dynsky rebuild), the epoch store, and a
// private WAL with the daemon's fsync and checkpoint policy. Only the
// path the daemon took is tagged with the swap's request id.
func (r *runner) traceWrites(tr *tracer, put func(name, unit string, v float64), writes []writeSample) error {
	if len(writes) == 0 {
		return fmt.Errorf("traced run has no swaps to replay")
	}
	g := r.modelAt(writes[0].batch).graph()
	tree := skytree.Build(g, skytree.BuildOptions{})
	store := serve.NewStore(&serve.Snapshot{Graph: g})
	defer store.Close()
	ctx := context.Background()
	var carry, tapply, tgraph, dnew, dapply, dgraph, swaps []time.Duration
	for _, ws := range writes[:min(replaySwaps, len(writes))] {
		batch := dynOps(r.batches[ws.batch])
		treeID, dynID := swapID(ws.batch), swapID(ws.batch)+"/alt"
		if !r.w.usesTree() {
			treeID, dynID = dynID, treeID
		}
		var tm *skytree.Maintainer
		carry = append(carry, tr.do(treeID, clsSwap, "skytree.NewMaintainerFromTree", func() { tm = skytree.NewMaintainerFromTree(g, tree) }))
		tapply = append(tapply, tr.do(treeID, clsSwap, "skytree.Maintainer.ApplyPrefixCtx", func() { _, _, _ = tm.ApplyPrefixCtx(ctx, batch) }))
		var next *graph.Graph
		tgraph = append(tgraph, tr.do(treeID, clsSwap, "skytree.Maintainer.Graph", func() { next = tm.Graph() }))
		var dm *dynsky.Maintainer
		dnew = append(dnew, tr.do(dynID, clsSwap, "dynsky.New", func() { dm = dynsky.New(g) }))
		dapply = append(dapply, tr.do(dynID, clsSwap, "dynsky.Maintainer.ApplyPrefixCtx", func() { _, _, _ = dm.ApplyPrefixCtx(ctx, batch) }))
		dgraph = append(dgraph, tr.do(dynID, clsSwap, "dynsky.Maintainer.Graph", func() { dm.Graph() }))
		if next.M() != r.mAfter[ws.batch] {
			return fmt.Errorf("replayed batch %d gives m=%d, model has %d", ws.batch, next.M(), r.mAfter[ws.batch])
		}
		swaps = append(swaps, tr.do(swapID(ws.batch), clsSwap, "serve.Store.Swap", func() { _, _ = store.Swap(&serve.Snapshot{Graph: next}) }))
		g, tree = next, tm.Tree()
	}
	put("skytree.carry_ms", "ms", medMS(carry))
	put("skytree.apply_ms", "ms", medMS(tapply))
	put("skytree.graph_ms", "ms", medMS(tgraph))
	put("dynsky.new_ms", "ms", medMS(dnew))
	put("dynsky.apply_ms", "ms", medMS(dapply))
	put("dynsky.graph_ms", "ms", medMS(dgraph))
	put("serve.store.swap_us", "us", medUS(swaps))
	const pins = 100000
	d := tr.do("-", "", "serve.Store.Acquire+Release", func() {
		for i := 0; i < pins; i++ {
			store.Acquire().Release()
		}
	})
	put("serve.store.acquire_us", "us", us(d)/pins)

	// wal: the daemon's durable write path on a private log in the run
	// directory, then recovery from it.
	dir := filepath.Join(r.dir, "trace-wal")
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	var appends, ckpts []time.Duration
	base := r.modelAt(writes[0].batch).graph()
	ckpts = append(ckpts, tr.do("-", "", "wal.Log.Checkpoint", func() { _, err = l.Checkpoint(base) }))
	for _, ws := range writes {
		appends = append(appends, tr.do(swapID(ws.batch), clsSwap, "wal.Log.Append", func() { _, err = l.Append(dynOps(r.batches[ws.batch])) }))
		if err != nil {
			l.Close()
			return fmt.Errorf("wal append: %w", err)
		}
		if (ws.batch+1)%ckptEvery == 0 {
			cg := r.modelAt(ws.batch + 1).graph()
			ckpts = append(ckpts, tr.do("-", "", "wal.Log.Checkpoint", func() { _, err = l.Checkpoint(cg) }))
			if err != nil {
				l.Close()
				return fmt.Errorf("wal checkpoint: %w", err)
			}
		}
	}
	if err := l.Close(); err != nil {
		return err
	}
	put("wal.append_us", "us", medUS(appends))
	put("wal.checkpoint_ms", "ms", medMS(ckpts))
	var rec *wal.Recovered
	d = tr.do("-", "", "wal.Recover", func() { rec, err = wal.Recover(dir) })
	if err != nil {
		return err
	}
	put("wal.recover_ms", "ms", ms(d))
	var m *dynsky.Maintainer
	d = tr.do("-", "", "wal.Recovered.Replay", func() { m = rec.Replay() })
	put("wal.replay_ms", "ms", ms(d))
	if last := writes[len(writes)-1].batch; m.M() != r.mAfter[last] {
		return fmt.Errorf("wal replay gives m=%d, model has %d", m.M(), r.mAfter[last])
	}
	return nil
}

func reqID(s sample) string   { return fmt.Sprintf("r%d", s.rq.idx) }
func swapID(batch int) string { return fmt.Sprintf("w%d", batch) }

func dynOps(b []op) []dynsky.Op {
	out := make([]dynsky.Op, len(b))
	for i, o := range b {
		out[i] = dynsky.Op{Add: o.Add, U: o.U, V: o.V}
	}
	return out
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
