package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"neisky/internal/centrality"
	"neisky/internal/clique"
	"neisky/internal/core"
	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/obs"
	"neisky/internal/runctl"
	"neisky/internal/skytree"
	"neisky/internal/wal"
)

// Options tunes the server. The zero value serves with a 30s timeout
// cap, no default timeout, uncapped budgets and 10k-entry list caps.
type Options struct {
	// DefaultTimeout bounds queries that set no ?timeout (0 = none
	// beyond MaxTimeout).
	DefaultTimeout time.Duration
	// MaxTimeout caps any per-query timeout; queries asking for more
	// (or for none, when DefaultTimeout is 0) get this. 0 = 30s.
	MaxTimeout time.Duration
	// MaxBudget caps the per-query ?budget work budget (0 = uncapped).
	MaxBudget int64
	// MaxList caps response list lengths (skyline members, dominator
	// entries, batch ops per swap); 0 = 10000.
	MaxList int
	// EnableDebug mounts /debug/{pprof,vars,metrics} on the serving
	// mux (deduplicated against obs.StartDebugServer).
	EnableDebug bool
	// MaxInFlight caps concurrently-served /v1 requests across all
	// endpoints (0 = unbounded). Requests past the cap are rejected with
	// 429 + Retry-After instead of queueing. /healthz and /v1/stats stay
	// outside the gate so operators can observe an overloaded server.
	MaxInFlight int
	// Shed enables load shedding: once the in-flight count reaches 3/4
	// of MaxInFlight, query deadlines are clamped to ShedTimeout so the
	// anytime engines return truncated-but-sound answers quickly and the
	// backlog drains. No effect without MaxInFlight.
	Shed bool
	// ShedTimeout is the shed-mode deadline clamp (default 100ms).
	ShedTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxTimeout == 0 {
		o.MaxTimeout = 30 * time.Second
	}
	if o.MaxList == 0 {
		o.MaxList = 10000
	}
	return o
}

// Server answers the /v1 query surface against an epoch-managed
// snapshot store. Construct with New, expose Handler, and Close after
// the HTTP server has shut down (Close blocks until every epoch
// drains).
type Server struct {
	store  *Store
	opts   Options
	mux    *http.ServeMux
	swapMu sync.Mutex // serializes swaps and checkpoints: each batch derives from the then-current epoch
	start  time.Time
	adm    *admission // bounded in-flight gate (nil = unbounded)

	wal      *wal.Log // attached write-ahead log (nil = non-durable)
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup
}

// New builds a server owning a fresh store seeded with snap.
func New(snap *Snapshot, opts Options) *Server {
	s := &Server{store: NewStore(snap), opts: opts.withDefaults(), mux: http.NewServeMux(), start: time.Now()}
	s.adm = newAdmission(s.opts)
	s.mux.HandleFunc("/v1/skyline", s.read("skyline", http.MethodGet, s.skyline))
	s.mux.HandleFunc("/v1/skyline/layers", s.read("layers", http.MethodGet, s.layers))
	s.mux.HandleFunc("/v1/skyline/subset", s.read("subset", http.MethodPost, s.subset))
	s.mux.HandleFunc("/v1/skyline/explain", s.read("explain", http.MethodGet, s.explain))
	s.mux.HandleFunc("/v1/centrality/group", s.read("centrality", http.MethodGet, s.centrality))
	s.mux.HandleFunc("/v1/clique", s.read("clique", http.MethodGet, s.clique))
	s.mux.HandleFunc("/v1/dominators", s.read("dominators", http.MethodGet, s.dominators))
	s.mux.HandleFunc("/v1/snapshot/swap", s.instrument("swap", s.handleSwap))
	s.mux.HandleFunc("/v1/checkpoint", s.instrument("checkpoint", s.handleCheckpoint))
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	if s.opts.EnableDebug {
		obs.AttachDebug(s.mux)
	}
	return s
}

// Handler returns the serving mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Store returns the snapshot store (for tests and embedding CLIs).
func (s *Server) Store() *Store { return s.store }

// Close stops the checkpoint loop, shuts the store down, and closes
// the attached WAL (if any); call only after in-flight requests have
// drained (http.Server.Shutdown does that).
func (s *Server) Close() {
	s.stopCheckpointLoop()
	s.store.Close()
	if s.wal != nil {
		_ = s.wal.Close()
	}
}

// meta is the envelope every query response carries: which epoch
// answered, its graph size, wall time, and the anytime markers.
type meta struct {
	Epoch     uint64 `json:"epoch"`
	N         int    `json:"n"`
	M         int    `json:"m"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Truncated bool   `json:"truncated"`
	Cause     string `json:"cause,omitempty"`
}

// response is a read endpoint's answer: a struct embedding meta, whose
// envelope the read skeleton fills.
type response interface{ envelope() *meta }

func (m *meta) envelope() *meta { return m }

// markTruncated fills the anytime markers.
func (m *meta) markTruncated(err error) {
	m.Truncated = true
	m.Cause = runctl.CauseString(err)
}

// countTruncated bumps the per-endpoint truncation counter.
func countTruncated(endpoint string) {
	if rec := obs.Get(); rec != nil {
		rec.Add("serve."+endpoint+".truncated", 1)
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusWriter captures the response code for the error counters.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.status = code
	sw.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the admission gate and the
// per-endpoint obs surface: serve.<name>.requests / .errors counters
// and a serve.<name>.latency timer, all no-ops when recording is
// disabled. The gate runs first, so a 429 counts as .rejected (in
// admit), never as .errors — rejections are the gate working, not the
// endpoint failing.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, r, ok := s.admit(name, w, r)
		if !ok {
			return
		}
		defer release()
		rec := obs.Get()
		if rec == nil {
			h(w, r)
			return
		}
		rec.Add("serve."+name+".requests", 1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		sp := rec.Start("serve." + name + ".latency")
		h(sw, r)
		sp.End()
		if sw.status >= 400 {
			rec.Add("serve."+name+".errors", 1)
		}
	}
}

// readFunc answers one read endpoint on the pinned epoch: it parses its
// own parameters and computes under ctx. A returned error is a bad
// request, answered with 400 and the error's text.
type readFunc func(ctx context.Context, r *http.Request, pin *Pin) (response, error)

// read is the one skeleton of the seven /v1 read endpoints. Inside
// instrument's admission gate and counters it checks the method, caps
// the request body, derives the query context and pins the current
// epoch; after the endpoint has run it fills the envelope (epoch, n, m,
// elapsed_ns), counts a truncated answer and writes the JSON. Swaps,
// checkpoints, stats and healthz keep their own handlers, because a
// batch swap must take swapMu before it pins.
func (s *Server) read(name, method string, h readFunc) http.HandlerFunc {
	return s.instrument(name, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			writeErr(w, http.StatusMethodNotAllowed, "%s only", method)
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxSwapBody)
		ctx, cancel, err := s.queryContext(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		defer cancel()
		pin := s.acquire(w)
		if pin == nil {
			return
		}
		defer pin.Release()

		start := time.Now()
		resp, err := h(ctx, r, pin)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		m, g := resp.envelope(), pin.Graph()
		m.Epoch, m.N, m.M = pin.Epoch(), g.N(), g.M()
		m.ElapsedNs = time.Since(start).Nanoseconds()
		if m.Truncated {
			countTruncated(name)
		}
		writeJSON(w, http.StatusOK, resp)
	})
}

// queryContext derives the per-query context: the request context (a
// dropped client connection cancels the engines mid-run), the ?timeout
// deadline clamped to [0, MaxTimeout] (DefaultTimeout when absent), and
// the ?budget work budget clamped to MaxBudget.
func (s *Server) queryContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	q := r.URL.Query()
	d := s.opts.DefaultTimeout
	if v := q.Get("timeout"); v != "" {
		td, err := time.ParseDuration(v)
		if err != nil || td <= 0 {
			return nil, nil, fmt.Errorf("bad timeout %q (want a positive Go duration)", v)
		}
		d = td
	}
	if d == 0 || d > s.opts.MaxTimeout {
		d = s.opts.MaxTimeout
	}
	// Under shed-mode overload the admission gate clamps every deadline:
	// a fast truncated answer over a queued complete one.
	if sd := shedDeadline(r.Context()); sd > 0 && sd < d {
		d = sd
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	if v := q.Get("budget"); v != "" {
		b, err := strconv.ParseInt(v, 10, 64)
		if err != nil || b <= 0 {
			cancel()
			return nil, nil, fmt.Errorf("bad budget %q (want a positive integer)", v)
		}
		if s.opts.MaxBudget > 0 && b > s.opts.MaxBudget {
			b = s.opts.MaxBudget
		}
		ctx = runctl.WithBudget(ctx, b)
	}
	return ctx, cancel, nil
}

// acquire pins the current snapshot or reports 503 (shutting down).
func (s *Server) acquire(w http.ResponseWriter) *Pin {
	pin := s.store.Acquire()
	if pin == nil {
		writeErr(w, http.StatusServiceUnavailable, "server is shutting down")
	}
	return pin
}

// parseLimit reads ?limit, defaulting to (and capping at) MaxList; 0
// also means MaxList.
func (s *Server) parseLimit(r *http.Request) (int, error) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return s.opts.MaxList, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad limit %q (want a non-negative integer)", v)
	}
	if n == 0 || n > s.opts.MaxList {
		return s.opts.MaxList, nil
	}
	return n, nil
}

// parseK reads ?k as a positive integer, def when absent.
func parseK(r *http.Request, def int) (int, error) {
	v := r.URL.Query().Get("k")
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0, fmt.Errorf("bad k %q (want a positive integer)", v)
	}
	return n, nil
}

type skylineResponse struct {
	meta
	SkylineSize int     `json:"skyline_size"`
	Skyline     []int32 `json:"skyline"`
}

// skyline serves GET /v1/skyline?timeout=&budget=&limit= from the
// epoch's skyline state (Snapshot.skyline): a lookup once the state is
// built. A build cut short by the query's context still returns 200:
// the listed set is a sound superset of the true skyline, flagged with
// truncated=true and the cause.
func (s *Server) skyline(ctx context.Context, r *http.Request, pin *Pin) (response, error) {
	limit, err := s.parseLimit(r)
	if err != nil {
		return nil, err
	}
	st := pin.Snapshot().skyline(ctx)
	resp := &skylineResponse{SkylineSize: st.dom.SkylineSize(), Skyline: clip(st.skyline(), limit)}
	if st.err != nil {
		resp.markTruncated(st.err)
	}
	return resp, nil
}

func clip(v []int32, limit int) []int32 {
	if len(v) > limit {
		return v[:limit]
	}
	if v == nil {
		return []int32{} // JSON [] instead of null
	}
	return v
}

type centralityResponse struct {
	meta
	K         int     `json:"k"`
	Measure   string  `json:"measure"`
	Group     []int32 `json:"group"`
	Value     float64 `json:"value"`
	GainCalls int     `json:"gain_calls"`
}

// centrality serves GET /v1/centrality/group?k=&measure=. It is the
// paper's NeiSkyGC/NeiSkyGH under a context: the epoch's skyline as
// candidates, lazy greedy, pruned BFS. On truncation Group is the
// prefix of true greedy picks committed so far.
func (s *Server) centrality(ctx context.Context, r *http.Request, pin *Pin) (response, error) {
	q := r.URL.Query()
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k < 1 {
		return nil, fmt.Errorf("bad k %q (want a positive integer)", q.Get("k"))
	}
	name := q.Get("measure")
	var measure centrality.Measure
	switch name {
	case "", "closeness":
		name, measure = "closeness", centrality.CLOSENESS
	case "harmonic":
		measure = centrality.HARMONIC
	default:
		return nil, fmt.Errorf("unknown measure %q (want closeness|harmonic)", name)
	}
	g := pin.Graph()
	k = min(k, g.N())
	st := pin.Snapshot().skyline(ctx)
	res := centrality.GreedyCtx(ctx, g, k, measure,
		centrality.Options{Candidates: st.skyline(), Lazy: true, PrunedBFS: true})
	resp := &centralityResponse{
		K:         k,
		Measure:   name,
		Group:     clip(res.Group, s.opts.MaxList),
		Value:     res.Value,
		GainCalls: res.GainCalls,
	}
	// A truncated skyline is still a sound (superset) candidate pool,
	// but the response must say the answer may differ from a full run.
	markDerived(&resp.meta, st, res.Truncated, res.Err)
	return resp, nil
}

// markDerived marks an answer computed from the skyline state st: it
// is truncated when st is (with st's cause) or when its own run was
// (truncated, with err).
func markDerived(m *meta, st *skyState, truncated bool, err error) {
	switch {
	case st.err != nil:
		m.markTruncated(st.err)
	case truncated:
		m.markTruncated(err)
	}
}

type cliqueResponse struct {
	meta
	Size    int       `json:"size"`
	Clique  []int32   `json:"clique"`
	Cliques [][]int32 `json:"cliques,omitempty"`
}

// clique serves GET /v1/clique?k=. k=1 (the default) is the
// skyline-seeded maximum-clique search, memoized on the epoch's
// skyline state; k>1 returns the k largest distinct cliques, seeded
// from the same state. On truncation every listed clique is genuine —
// the incumbent(s) of the branch-and-bound — just possibly not maximum.
func (s *Server) clique(ctx context.Context, r *http.Request, pin *Pin) (response, error) {
	k, err := parseK(r, 1)
	if err != nil {
		return nil, err
	}
	k = min(k, s.opts.MaxList)
	resp := &cliqueResponse{}
	st := pin.Snapshot().skyline(ctx)
	if k == 1 {
		res := st.maxClique(ctx, pin.Graph())
		resp.Size = len(res.Clique)
		resp.Clique = clip(res.Clique, s.opts.MaxList)
		markDerived(&resp.meta, st, res.Truncated, res.Err)
		return resp, nil
	}
	sky := &core.Result{Skyline: st.skyline(), Dominator: st.dom.Slice()}
	res := clique.NeiSkyTopkMCCWithSkylineCtx(ctx, pin.Graph(), k, sky)
	resp.Clique, resp.Cliques = []int32{}, res.Cliques
	if len(res.Cliques) > 0 {
		resp.Size, resp.Clique = len(res.Cliques[0]), res.Cliques[0]
	}
	markDerived(&resp.meta, st, res.Truncated, res.Err)
	return resp, nil
}

type dominatorEntry struct {
	V         int32 `json:"v"`
	Dominator int32 `json:"dominator"`
	InSkyline bool  `json:"in_skyline"`
}

type dominatorsResponse struct {
	meta
	SkylineSize int              `json:"skyline_size"`
	Dominators  []dominatorEntry `json:"dominators"`
}

// dominators serves GET /v1/dominators?v=3,7,12 — the paper's O array
// restricted to the requested vertices (all vertices, list-capped, when
// ?v is absent), looked up in the epoch's skyline state. Each entry
// names x's smallest-ID dominator; in_skyline entries dominate
// themselves. On truncation in_skyline=true means "not yet proven
// dominated".
func (s *Server) dominators(ctx context.Context, r *http.Request, pin *Pin) (response, error) {
	limit, err := s.parseLimit(r)
	if err != nil {
		return nil, err
	}
	g := pin.Graph()
	var verts []int32
	if raw := strings.TrimSpace(r.URL.Query().Get("v")); raw != "" {
		for _, tok := range strings.Split(raw, ",") {
			id, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 32)
			if err != nil || id < 0 || id >= int64(g.N()) {
				return nil, fmt.Errorf("bad vertex id %q (graph has %d vertices)", tok, g.N())
			}
			verts = append(verts, int32(id))
		}
		if len(verts) > limit {
			verts = verts[:limit]
		}
	}

	st := pin.Snapshot().skyline(ctx)
	if verts == nil {
		verts = make([]int32, min(g.N(), limit))
		for i := range verts {
			verts[i] = int32(i)
		}
	}
	entries := make([]dominatorEntry, len(verts))
	for i, v := range verts {
		d := st.dom.Of(v)
		entries[i] = dominatorEntry{V: v, Dominator: d, InSkyline: d == v}
	}
	resp := &dominatorsResponse{SkylineSize: st.dom.SkylineSize(), Dominators: entries}
	if st.err != nil {
		resp.markTruncated(st.err)
	}
	return resp, nil
}

// swapRequest is the POST /v1/snapshot/swap body: either a snapshot
// file to load, or a batch of edge updates to apply to the current
// snapshot.
type swapRequest struct {
	Path string   `json:"path,omitempty"`
	Mmap bool     `json:"mmap,omitempty"`
	Ops  []swapOp `json:"ops,omitempty"`
}

type swapOp struct {
	Add bool  `json:"add"`
	U   int32 `json:"u"`
	V   int32 `json:"v"`
}

type swapResponse struct {
	meta
	Applied     int    `json:"applied"`
	SkylineSize int    `json:"skyline_size,omitempty"`
	Source      string `json:"source"`
}

// maxSwapBody bounds every request body: a swap's ops (1 MiB of ops ≈
// 25k ops, well past MaxList) and, through the read skeleton, a
// subset's vertex list.
const maxSwapBody = 1 << 20

// handleSwap serves POST /v1/snapshot/swap. The new snapshot is built
// entirely off to the side — from a file, or by replaying an edge batch
// through one maintainer seeded from the pinned current graph — and
// published with one atomic store; in-flight queries keep their pinned
// epoch until they drain. Every swap publishes under swapMu, so each
// batch derives from its predecessor and no file swap lands between a
// batch's pin and its publish. A cancelled batch publishes the exact
// applied prefix (the maintainers' per-op atomicity) with
// truncated=true.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req swapRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSwapBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad swap request: %v", err)
		return
	}
	switch {
	case req.Path != "" && len(req.Ops) > 0:
		writeErr(w, http.StatusBadRequest, "swap request wants either path or ops, not both")
		return
	case req.Path == "" && len(req.Ops) == 0:
		writeErr(w, http.StatusBadRequest, "swap request needs a path or a non-empty ops batch")
		return
	case len(req.Ops) > s.opts.MaxList:
		writeErr(w, http.StatusBadRequest, "ops batch of %d exceeds the %d cap", len(req.Ops), s.opts.MaxList)
		return
	}
	if req.Path != "" {
		s.swapFromFile(w, r, req)
		return
	}
	s.swapFromOps(w, r, req.Ops)
}

func (s *Server) swapFromFile(w http.ResponseWriter, r *http.Request, req swapRequest) {
	snap, err := SnapshotFromFile(req.Path, req.Mmap)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "load %s: %v", req.Path, err)
		return
	}
	g := snap.Graph
	// The file loads outside the lock; the publish takes it, or a batch
	// swap that pinned the older epoch would publish over this graph. A
	// file swap also replaces the WAL lineage wholesale: no op sequence
	// connects the old state to the new graph, so the cut-over is made
	// durable as a checkpoint BEFORE the epoch is published — same
	// ack-after-durable ordering as batch swaps. The lock keeps appends
	// and other checkpoints out from under the lineage change.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.wal != nil {
		if _, err := s.wal.Checkpoint(g); err != nil {
			if snap.Closer != nil {
				_ = snap.Closer.Close()
			}
			writeErr(w, http.StatusServiceUnavailable, "wal checkpoint: %v", err)
			return
		}
	}
	id, err := s.store.Swap(snap)
	if err != nil {
		if snap.Closer != nil {
			_ = snap.Closer.Close()
		}
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, swapResponse{
		meta:   meta{Epoch: id, N: g.N(), M: g.M()},
		Source: snap.Name,
	})
}

func (s *Server) swapFromOps(w http.ResponseWriter, r *http.Request, ops []swapOp) {
	ctx, cancel, err := s.queryContext(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cancel()

	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	pin := s.acquire(w)
	if pin == nil {
		return
	}
	// The maintainers read the pinned graph's rows (possibly an mmap)
	// until their Graph() returns, so the pin outlives the build.
	defer pin.Release()
	g := pin.Graph()
	batch := make([]dynsky.Op, len(ops))
	for i, op := range ops {
		if op.U < 0 || op.V < 0 || int(op.U) >= g.N() || int(op.V) >= g.N() || op.U == op.V {
			writeErr(w, http.StatusBadRequest, "bad op %d: edge (%d,%d) on %d vertices", i, op.U, op.V, g.N())
			return
		}
		batch[i] = dynsky.Op{Add: op.Add, U: op.U, V: op.V}
	}

	start := time.Now()
	// If the outgoing snapshot has a built layered index, carry it over
	// incrementally (skytree re-decides, level by level, only the
	// vertices each op can flip) instead of leaving the new epoch to a
	// lazy from-scratch rebuild; the carried layer 0 gives the skyline
	// size, so no skyline engine runs. Without an index, dynsky's
	// maintained O array gives it, and the new snapshot keeps that
	// array as its skyline state: reads look it up, and the next swap
	// continues from it. Only a lineage's first batch swap after a load
	// (startup, file swap or WAL recovery) seeds dynsky with an engine
	// run, and not even that one when a read has built the outgoing
	// epoch's state. A cancelled batch publishes the exact applied
	// prefix either way.
	var processed, applied int
	var applyErr error
	var snap *Snapshot
	var skySize int
	if prev := pin.Snapshot().TreeIfBuilt(); prev != nil {
		tm := skytree.NewMaintainerFromTree(g, prev)
		processed, applied, applyErr = tm.ApplyPrefixCtx(ctx, batch)
		snap = &Snapshot{Graph: tm.Graph(), Name: fmt.Sprintf("batch:%d", applied)}
		t := tm.Tree()
		snap.SetTree(t)
		skySize = t.SkylineSize(snap.Graph)
	} else {
		var m *dynsky.Maintainer
		if st := pin.Snapshot().skylineIfBuilt(); st != nil {
			m = dynsky.Seeded(g, st.dom)
		} else {
			m = dynsky.New(g)
		}
		processed, applied, applyErr = m.ApplyPrefixCtx(ctx, batch)
		snap = &Snapshot{Graph: m.Graph(), Name: fmt.Sprintf("batch:%d", applied),
			sky: &skyState{dom: m.Dominators()}}
		skySize = snap.sky.dom.SkylineSize()
	}
	// Ack-after-durable: the processed prefix — exactly what the new
	// snapshot's state reflects — reaches the WAL before the epoch is
	// published or the client answered. A failed append publishes
	// nothing: the client retries against the old (still durable) state.
	if s.wal != nil && processed > 0 {
		if _, err := s.wal.Append(batch[:processed]); err != nil {
			writeErr(w, http.StatusServiceUnavailable, "wal append: %v", err)
			return
		}
	}
	id, err := s.store.Swap(snap)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	resp := swapResponse{
		meta: meta{Epoch: id, N: snap.Graph.N(), M: snap.Graph.M(),
			ElapsedNs: time.Since(start).Nanoseconds()},
		Applied:     applied,
		SkylineSize: skySize,
		Source:      snap.Name,
	}
	if applyErr != nil {
		resp.markTruncated(applyErr)
		countTruncated("swap")
	}
	writeJSON(w, http.StatusOK, resp)
}

type statsResponse struct {
	Epoch         uint64  `json:"epoch"`
	N             int     `json:"n"`
	M             int     `json:"m"`
	Snapshot      string  `json:"snapshot"`
	MaxDegree     int     `json:"max_degree"`
	AvgDegree     float64 `json:"avg_degree"`
	Swaps         int64   `json:"swaps"`
	RetiredEpochs int64   `json:"retired_epochs"`
	UptimeNs      int64   `json:"uptime_ns"`
	InFlight      int64   `json:"in_flight,omitempty"`
	WALLastSeq    uint64  `json:"wal_last_seq,omitempty"`
	WALCkptSeq    uint64  `json:"wal_checkpoint_seq,omitempty"`
	WALSegments   int     `json:"wal_segments,omitempty"`
}

// handleStats serves GET /v1/stats: the current snapshot's identity and
// shape plus the store's swap/retire counters. Per-endpoint latency and
// truncation metrics live on /debug/metrics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	pin := s.acquire(w)
	if pin == nil {
		return
	}
	defer pin.Release()
	g := pin.Graph()
	st := g.Stats()
	resp := statsResponse{
		Epoch:         pin.Epoch(),
		N:             g.N(),
		M:             g.M(),
		Snapshot:      pin.Snapshot().Name,
		MaxDegree:     st.MaxDegree,
		AvgDegree:     st.AvgDegree,
		Swaps:         s.store.Swaps(),
		RetiredEpochs: s.store.RetiredEpochs(),
		UptimeNs:      time.Since(s.start).Nanoseconds(),
		InFlight:      s.InFlight(),
	}
	if s.wal != nil {
		resp.WALLastSeq = s.wal.LastSeq()
		resp.WALCkptSeq = s.wal.CheckpointSeq()
		resp.WALSegments = s.wal.Segments()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	pin := s.store.Acquire()
	if pin == nil {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	pin.Release()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// SnapshotFromFile loads a serving snapshot from path: a binary
// snapshot is heap-loaded (or mmap'd when useMmap is set), anything
// else is parsed as a text edge list. Closer is non-nil exactly when
// the graph aliases a mapping.
func SnapshotFromFile(path string, useMmap bool) (*Snapshot, error) {
	if graph.IsBinarySnapshot(path) {
		if useMmap {
			mg, err := graph.OpenMmap(path)
			if err != nil {
				return nil, err
			}
			return &Snapshot{Graph: mg.Graph, Closer: mg, Name: path}, nil
		}
		g, err := graph.LoadBinaryFile(path)
		if err != nil {
			return nil, err
		}
		return &Snapshot{Graph: g, Name: path}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return nil, err
	}
	return &Snapshot{Graph: g, Name: path}, nil
}
