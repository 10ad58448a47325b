// Package serve is the long-running query layer: an HTTP server that
// holds an immutable graph snapshot and answers concurrent skyline,
// group-centrality, clique and dominator queries against it, with
// per-query deadlines and work budgets from internal/runctl and the
// typed anytime contracts surfaced in every response.
//
// # Epoch-based snapshot management
//
// Snapshot replacement is RCU-style. The current snapshot lives behind
// an atomic pointer; a query pins it by incrementing the epoch's
// refcount and re-validating the pointer (Store.Acquire), so the hot
// path is two atomic loads and one atomic add — no locks, no channels,
// and thousands of queries can share one snapshot. A writer builds the
// next snapshot off to the side, publishes it with one atomic swap
// (Store.Swap), and drops the publisher reference of the old epoch;
// the old snapshot's resources (an mmap, typically) are released only
// when the last in-flight query unpins it. Queries therefore never
// observe a retired snapshot, and every retired epoch's refcount
// drains to zero — both properties are asserted by the race-detector
// battery in epoch_test.go.
package serve

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/skytree"
)

// ErrClosed is returned by Swap after the store has shut down.
var ErrClosed = errors.New("serve: store closed")

// Snapshot is one immutable generation of the served graph, with the
// state derived from it: the layered index and the skyline. Each is
// computed once per epoch, on the first query that needs it or by the
// batch swap that published the epoch, and every later query of the
// epoch reads it.
type Snapshot struct {
	Graph *graph.Graph
	// Closer releases the resources backing Graph (an mmap) when the
	// snapshot's epoch retires and its last pin drains; nil for
	// heap-backed graphs.
	Closer io.Closer
	// Name records provenance for /v1/stats: a file path, a dataset
	// name, or "batch:<applied>" for applied update batches.
	Name string

	// The layered dominance index of Graph, built lazily on the first
	// query that needs it (or carried over incrementally across a batch
	// swap). Guarded by treeMu, not an atomic: concurrent first queries
	// should share one build, not race duplicate ones.
	treeMu sync.Mutex
	tree   *skytree.Tree

	// The skyline state of Graph (see skyState), under Tree's rule.
	// A batch swap without an index sets it before it publishes.
	skyMu sync.Mutex
	sky   *skyState
}

// Tree returns the snapshot's layered dominance index, building it on
// first use under ctx. Builds truncated by the querying context are
// returned (their assigned prefix is exact) but never cached, so a
// later query with more budget gets a fresh, complete build.
func (s *Snapshot) Tree(ctx context.Context) *skytree.Tree {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	if s.tree != nil {
		return s.tree
	}
	t := skytree.BuildCtx(ctx, s.Graph, skytree.BuildOptions{})
	if !t.Truncated {
		s.tree = t
	}
	return t
}

// TreeIfBuilt returns the cached index without triggering a build (nil
// when no complete build has happened yet) — the probe batch swaps use
// to decide between incremental carry-over and lazy rebuild.
func (s *Snapshot) TreeIfBuilt() *skytree.Tree {
	s.treeMu.Lock()
	defer s.treeMu.Unlock()
	return s.tree
}

// SetTree installs a precomputed complete index (swap carry-over, CLI
// prewarm). Truncated trees are ignored.
func (s *Snapshot) SetTree(t *skytree.Tree) {
	if t == nil || t.Truncated {
		return
	}
	s.treeMu.Lock()
	s.tree = t
	s.treeMu.Unlock()
}

// skyState is one epoch's skyline: Graph's canonical O array with |R|
// (dynsky.Dominators: each entry the smallest-ID dominator, isolated
// vertices on the closed form, the array core.BruteForce returns), and
// derived from it on first use the ascending skyline and the k=1
// maximum clique. /v1/skyline, /v1/dominators, /v1/clique and
// /v1/centrality/group read it instead of running an engine.
//
// A state whose build a query's context cut short (err != nil) holds a
// sound superset: every entry names a valid dominator or the vertex
// itself (not yet proven dominated). It is returned to that query, and
// every answer derived from it is marked truncated with err as the
// cause, but it is never cached.
type skyState struct {
	dom dynsky.Dominators
	err error

	listOnce sync.Once
	list     []int32

	cliqueMu sync.Mutex
	clique   *clique.Result // the complete k=1 clique, once computed
}

// skyline returns the snapshot's skyline state, building it on first
// use under ctx from the cheapest source the epoch has:
//  1. the O array and |R| a batch swap without an index published;
//  2. a built index's layer 0 (the skyline, plus the isolated
//     vertices), then one whole-graph smallest-dominator scan per
//     dominated non-isolated vertex (dynsky.Canonical);
//  3. one sharded skyline engine run under ctx, then that scan.
//
// A truncated build is returned but never cached (Tree's rule).
func (s *Snapshot) skyline(ctx context.Context) *skyState {
	s.skyMu.Lock()
	defer s.skyMu.Unlock()
	if s.sky != nil {
		return s.sky
	}
	g := s.Graph
	dom := make([]int32, g.N())
	var engineErr error
	if t := s.TreeIfBuilt(); t != nil {
		for v := range dom {
			dom[v] = -1
			if t.Layer(int32(v)) == 0 {
				dom[v] = int32(v)
			}
		}
	} else {
		res := core.ShardedFilterRefineSkyCtx(ctx, g, core.Options{}, core.ShardOptions{})
		dom = res.Dominator
		if res.Truncated {
			engineErr = res.Err
		}
	}
	d, err := dynsky.Canonical(ctx, g, dom)
	st := &skyState{dom: d, err: err}
	if engineErr != nil {
		st.err = engineErr
	}
	if st.err == nil {
		s.sky = st
	}
	return st
}

// skylineIfBuilt returns the cached skyline state without building it
// (nil when none is cached): a batch swap seeds dynsky from it.
func (s *Snapshot) skylineIfBuilt() *skyState {
	s.skyMu.Lock()
	defer s.skyMu.Unlock()
	return s.sky
}

// skyline returns the skyline in ascending ID order.
func (st *skyState) skyline() []int32 {
	st.listOnce.Do(func() { st.list = st.dom.Skyline() })
	return st.list
}

// maxClique returns a maximum clique of g, the state's graph, found by
// the skyline-pruned search (clique.NeiSkyMCWithSkylineCtx) under ctx.
// A complete search from a complete state is memoized; a truncated one
// is returned and retried by the next query.
func (st *skyState) maxClique(ctx context.Context, g *graph.Graph) *clique.Result {
	st.cliqueMu.Lock()
	defer st.cliqueMu.Unlock()
	if st.clique != nil {
		return st.clique
	}
	res := clique.NeiSkyMCWithSkylineCtx(ctx, g, st.skyline())
	if !res.Truncated && st.err == nil {
		st.clique = res
	}
	return res
}

// epoch pairs one published snapshot with its reader refcount.
type epoch struct {
	snap  *Snapshot
	id    uint64
	store *Store
	// refs counts pins plus one publisher reference held while the
	// epoch is current. It can reach zero only after retirement.
	refs    atomic.Int64
	retired atomic.Bool // publisher reference dropped (no longer current)
	freed   atomic.Bool // resources released; a held pin must never see this
	drained chan struct{}
}

// unref drops one reference; the reference that takes the count to zero
// releases the snapshot's resources exactly once. A late Acquire can
// briefly resurrect the count past zero before its validation fails and
// re-drops it, so the zero transition is CAS-guarded.
func (e *epoch) unref() {
	if e.refs.Add(-1) == 0 && e.freed.CompareAndSwap(false, true) {
		if e.snap.Closer != nil {
			_ = e.snap.Closer.Close()
		}
		e.store.retiredN.Add(1)
		e.store.live.Done()
		close(e.drained)
	}
}

// Store publishes snapshots to concurrent readers with epoch-based
// reclamation. The zero value is unusable; construct with NewStore.
type Store struct {
	cur      atomic.Pointer[epoch]
	mu       sync.Mutex // serializes Swap and Close
	lastID   atomic.Uint64
	swapsN   atomic.Int64
	retiredN atomic.Int64
	live     sync.WaitGroup // one unit per not-yet-freed epoch
}

// NewStore returns a store serving snap as epoch 1.
func NewStore(snap *Snapshot) *Store {
	s := &Store{}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publish(snap)
	return s
}

// publish installs snap as the new current epoch and retires the old
// one. Caller holds s.mu.
func (s *Store) publish(snap *Snapshot) uint64 {
	e := &epoch{snap: snap, id: s.lastID.Add(1), store: s, drained: make(chan struct{})}
	e.refs.Store(1) // the publisher reference
	s.live.Add(1)
	old := s.cur.Swap(e)
	if old != nil {
		s.swapsN.Add(1)
		old.retired.Store(true)
		old.unref()
	}
	return e.id
}

// Pin is a leased reference to one epoch's snapshot. Release it when
// the query completes; the snapshot stays valid until then even if
// newer epochs have been published and retired it.
type Pin struct {
	e *epoch
}

// Acquire pins the current snapshot, or returns nil after Close. The
// validation re-load makes the pin safe against a concurrent swap: if
// the epoch was replaced between the load and the increment, the
// increment is undone and the acquire retries on the new epoch. When
// the validation succeeds the publisher reference is still (or was at
// the increment) held, so the count was ≥ 2 and the epoch is live.
func (s *Store) Acquire() *Pin {
	for {
		e := s.cur.Load()
		if e == nil {
			return nil
		}
		e.refs.Add(1)
		if s.cur.Load() == e {
			return &Pin{e: e}
		}
		e.unref()
	}
}

// Graph returns the pinned snapshot's graph.
func (p *Pin) Graph() *graph.Graph { return p.e.snap.Graph }

// Snapshot returns the pinned snapshot.
func (p *Pin) Snapshot() *Snapshot { return p.e.snap }

// Epoch returns the pinned epoch's id (1 for the initial snapshot).
func (p *Pin) Epoch() uint64 { return p.e.id }

// Defunct reports whether the pinned epoch's resources have been
// released. It must be false for as long as the pin is held — the
// race-detector battery asserts exactly this.
func (p *Pin) Defunct() bool { return p.e.freed.Load() }

// Release unpins the snapshot. Safe to call once per Acquire.
func (p *Pin) Release() {
	if p.e != nil {
		e := p.e
		p.e = nil
		e.unref()
	}
}

// Swap publishes snap as the new current snapshot and retires the old
// epoch (resources freed when its last pin drains). It returns the new
// epoch id, or ErrClosed after Close — the caller then still owns snap.
func (s *Store) Swap(snap *Snapshot) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur.Load() == nil {
		return 0, ErrClosed
	}
	return s.publish(snap), nil
}

// Close retires the current epoch, makes further Acquires return nil
// and further Swaps fail, and blocks until every epoch ever published
// has drained and released its resources.
func (s *Store) Close() {
	s.mu.Lock()
	e := s.cur.Swap(nil)
	if e != nil {
		e.retired.Store(true)
		e.unref()
	}
	s.mu.Unlock()
	s.live.Wait()
}

// CurrentEpoch returns the id of the current epoch without pinning it
// (0 after Close). For stats only — the epoch may retire immediately.
func (s *Store) CurrentEpoch() uint64 {
	if e := s.cur.Load(); e != nil {
		return e.id
	}
	return 0
}

// Swaps counts snapshots published after the initial one.
func (s *Store) Swaps() int64 { return s.swapsN.Load() }

// RetiredEpochs counts epochs that have fully drained and released
// their resources.
func (s *Store) RetiredEpochs() int64 { return s.retiredN.Load() }
