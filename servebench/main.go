package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"neisky/internal/gen"
	"neisky/internal/graph"
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	nsserve  string
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "skyline-reads | index-reads | durable-writes")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: snapshot, request stream and op batches")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run that reports the per-layer metrics")
	flag.StringVar(&cfg.nsserve, "nsserve", "", "nsserve binary to benchmark")
	flag.StringVar(&cfg.work, "work", "", "directory for snapshots, WALs, daemon logs and span files")
	flag.Parse()
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	switch {
	case !ok:
		fail(fmt.Errorf("unknown -workload %q (want skyline-reads, index-reads or durable-writes)", cfg.workload))
	case cfg.seconds < 1:
		fail(fmt.Errorf("-seconds must be at least 1"))
	case trace != 0 && trace != 1:
		fail(fmt.Errorf("-trace must be 0 or 1"))
	case cfg.nsserve == "" || cfg.work == "":
		fail(fmt.Errorf("-nsserve and -work are required"))
	}

	r := &runner{cfg: cfg, w: w, truths: map[uint64]*truth{}}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		r.cleanup()
		os.Exit(1)
	}()
	res, info, err := r.run()
	r.cleanup()
	if err != nil {
		fail(err)
	}
	infoLine, _ := json.Marshal(info) // plain maps and numbers
	fmt.Println("info:", string(infoLine))
	out, err := json.Marshal(res)
	if err != nil {
		fail(fmt.Errorf("encode result: %w", err))
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "servebench:", err)
	os.Exit(1)
}

// runner holds one run's inputs, daemons and tallies.
type runner struct {
	cfg config
	w   workload
	dir string

	mu      sync.Mutex
	daemons []*daemon
	cleaned bool

	snapPath string
	checksum string
	g0       *graph.Graph
	model    *edgeModel // base edge set
	st       *stream
	batches  [][]op
	mAfter   []int // edge count after each batch

	nextReq   atomic.Int64
	nextBatch int    // batches acknowledged on the current lineage
	epoch     uint64 // current epoch of the measured daemon

	truthMu sync.Mutex
	truths  map[uint64]*truth // by epoch of the measured daemon

	attempted, failed, truncated, answered atomic.Int64
	failures                               []string
}

// passResult is one measured window.
type passResult struct {
	reads   []sample
	writes  []writeSample
	elapsed time.Duration
}

type sample struct {
	rq    request
	lat   time.Duration
	bytes int
	epoch uint64
	resp  any // kept only until verification
	ok    bool
}

type writeSample struct {
	batch            int
	due, sent, acked time.Time
	ok               bool
}

func (r *runner) start(name string, args ...string) (*daemon, error) {
	d, err := startDaemon(r.cfg.nsserve, r.dir, name, append(args, "-checkpoint-every", "0"))
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cleaned {
		d.kill()
		return nil, errors.New("interrupted")
	}
	r.daemons = append(r.daemons, d)
	return d, nil
}

// cleanup kills every daemon still running and removes the run's
// scratch directory. Safe to call twice.
func (r *runner) cleanup() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cleaned {
		return
	}
	r.cleaned = true
	for _, d := range r.daemons {
		d.kill()
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir) // scratch only; a leftover is harmless
	}
}

func (r *runner) failf(format string, args ...any) {
	r.failed.Add(1)
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, msg)
	}
	r.mu.Unlock()
}

func (r *runner) truthAt(epoch uint64) *truth {
	r.truthMu.Lock()
	defer r.truthMu.Unlock()
	return r.truths[epoch]
}

// prepare generates the seeded snapshot and the reference answers.
func (r *runner) prepare() error {
	r.dir = filepath.Join(r.cfg.work, fmt.Sprintf("%s-%d-%d", r.cfg.workload, r.cfg.seed, os.Getpid()))
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	r.snapPath = filepath.Join(r.dir, "snap.nsb2")
	src := func(emit func(u, v int32) error) error {
		return gen.StreamChungLu(snapN, snapM, snapBeta, r.cfg.seed, emit)
	}
	if _, err := graph.ConvertEdges(src, r.snapPath, graph.ConvertOptions{N: snapN, Relabel: true}); err != nil {
		return fmt.Errorf("generate snapshot: %w", err)
	}
	f, err := os.Open(r.snapPath)
	if err != nil {
		return err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return err
	}
	r.checksum = hex.EncodeToString(h.Sum(nil))[:16]
	if r.g0, err = graph.LoadBinaryFile(r.snapPath); err != nil {
		return err
	}
	r.truths[1] = newTruth(r.g0)
	r.model = newEdgeModel(r.g0)
	r.st = newStream(r.w, r.cfg.seed, r.g0.N())
	r.truths[1].precompute(r.st)

	n := probeSwaps
	if _, swaps := r.window(); swaps > 0 {
		n = 2 * swaps // a traced run has two windows
	}
	r.batches = makeBatches(r.g0, r.model, r.cfg.seed, n)
	m := r.g0.M()
	for _, b := range r.batches {
		for _, o := range b {
			if o.Add {
				m++
			} else {
				m--
			}
		}
		r.mAfter = append(r.mAfter, m)
	}
	return nil
}

// window returns the length of one measured window and the number of
// open-loop swaps due in it. A traced run splits --seconds into an
// untraced and a traced window.
func (r *runner) window() (time.Duration, int) {
	d := time.Duration(r.cfg.seconds) * time.Second
	if r.cfg.trace {
		d /= 2
	}
	if !r.w.writes {
		return d, 0
	}
	return d, int(d / swapPeriod)
}

// modelAt returns a copy of the base edge set with the first k batches
// applied.
func (r *runner) modelAt(k int) *edgeModel {
	m := r.model.clone()
	for _, b := range r.batches[:k] {
		for _, o := range b {
			m.apply(o)
		}
	}
	return m
}

// issue sends one read, decodes it and verifies it against lookup's
// truth for the epoch it names, or keeps the response when lookup has
// none yet.
func (r *runner) issue(c *http.Client, base string, rq request, lookup func(uint64) *truth) sample {
	start := time.Now()
	code, body, err := call(c, base, rq.method, rq.url, rq.body)
	s := sample{rq: rq, lat: time.Since(start)}
	s.bytes = len(body)
	r.attempted.Add(1)
	switch {
	case err != nil:
		r.failf("%s %s: %v", rq.method, rq.url, err)
		return s
	case code != http.StatusOK:
		r.failf("%s %s: status %d: %.200s", rq.method, rq.url, code, body)
		return s
	}
	resp := newResp(rq.class)
	if err := json.Unmarshal(body, resp); err != nil {
		r.failf("%s %s: decode: %v", rq.method, rq.url, err)
		return s
	}
	r.answered.Add(1)
	s.epoch = metaOf(resp).Epoch
	s.resp = resp
	if t := lookup(s.epoch); t != nil {
		r.verify(t, &s)
	}
	return s
}

func (r *runner) verify(t *truth, s *sample) {
	if metaOf(s.resp).Truncated {
		r.truncated.Add(1)
	}
	if err := t.check(r.st, s.rq, s.resp); err != nil {
		r.failf("%s %s (epoch %d): %v", s.rq.method, s.rq.url, s.epoch, err)
	} else {
		s.ok = true
	}
	s.resp = nil
}

// warm sends one request of each of the workload's read classes to a
// freshly started daemon (epoch 1) and reports whether every answer
// checked out against t.
func (r *runner) warm(d *daemon, t *truth) bool {
	c := newClient()
	defer c.CloseIdleConnections()
	ok := true
	first := func(e uint64) *truth {
		if e == 1 {
			return t
		}
		return nil
	}
	for _, class := range r.w.classes() {
		s := r.issue(c, d.base, r.st.firstOf(class), first)
		if s.resp != nil {
			r.failf("%s %s: a fresh daemon answered from epoch %d", s.rq.method, s.rq.url, s.epoch)
		}
		ok = ok && s.ok
	}
	return ok
}

// pass runs the closed-loop readers for length and, when swaps > 0,
// the writer for that many swaps (open loop unless closed is set).
func (r *runner) pass(d *daemon, length time.Duration, readers, swaps int, closed bool) passResult {
	var res passResult
	start := time.Now()
	deadline := start.Add(length)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var mine []sample
			for time.Now().Before(deadline) {
				mine = append(mine, r.issue(c, d.base, r.st.at(int(r.nextReq.Add(1)-1)), r.truthAt))
			}
			mu.Lock()
			res.reads = append(res.reads, mine...)
			mu.Unlock()
		}()
	}
	if swaps > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.writes = r.writer(d, start, swaps, closed)
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Slice(res.reads, func(i, j int) bool { return res.reads[i].rq.idx < res.reads[j].rq.idx })
	return res
}

// writer posts swaps one at a time on one connection, and a checkpoint
// after every ckptEvery-th acknowledged swap. Open loop, swap k is due
// at start + k*swapPeriod whether or not earlier swaps have returned;
// closed loop, each swap is due when the previous one (and its
// checkpoint) returned. It stops at the first failed swap, after which
// the daemon and the model no longer agree.
func (r *runner) writer(d *daemon, start time.Time, count int, closed bool) []writeSample {
	c := newClient()
	defer c.CloseIdleConnections()
	var out []writeSample
	for k := 0; k < count; k++ {
		if r.nextBatch >= len(r.batches) {
			r.failf("swap schedule exceeds the %d generated batches", len(r.batches))
			break
		}
		due := start.Add(time.Duration(k) * swapPeriod)
		if closed {
			due = time.Now()
		}
		time.Sleep(time.Until(due))
		ws := writeSample{batch: r.nextBatch, due: due, sent: time.Now()}
		ws.ok = r.swap(c, d, &ws)
		ws.acked = time.Now()
		out = append(out, ws)
		if !ws.ok {
			break
		}
		if r.nextBatch%ckptEvery == 0 {
			r.checkpoint(c, d)
		}
	}
	return out
}

func (r *runner) swap(c *http.Client, d *daemon, ws *writeSample) bool {
	b := r.batches[ws.batch]
	body, _ := json.Marshal(map[string][]op{"ops": b}) // cannot fail on []op
	r.attempted.Add(1)
	code, out, err := call(c, d.base, "POST", "/v1/snapshot/swap", body)
	if err != nil || code != http.StatusOK {
		r.failf("swap %d: status %d, %v: %.200s", ws.batch, code, err, out)
		return false
	}
	var resp swapResp
	if err := json.Unmarshal(out, &resp); err != nil {
		r.failf("swap %d: decode: %v", ws.batch, err)
		return false
	}
	r.answered.Add(1)
	if resp.Truncated {
		r.truncated.Add(1)
	}
	want := swapResp{meta: meta{Epoch: r.epoch + 1, N: r.g0.N(), M: r.mAfter[ws.batch]}, Applied: len(b)}
	if resp != want {
		r.failf("swap %d: got %+v, want %+v", ws.batch, resp, want)
		return false
	}
	r.epoch++
	r.nextBatch++
	return true
}

func (r *runner) checkpoint(c *http.Client, d *daemon) {
	r.attempted.Add(1)
	code, out, err := call(c, d.base, "POST", "/v1/checkpoint", nil)
	if err != nil || code != http.StatusOK {
		r.failf("checkpoint after swap %d: status %d, %v: %.200s", r.nextBatch, code, err, out)
	}
}

// verifyDeferred checks the reads whose epoch had no truth while the
// window ran, building each epoch's truth from the model.
func (r *runner) verifyDeferred(reads []sample) {
	need := map[uint64]bool{}
	for _, s := range reads {
		if s.resp != nil {
			need[s.epoch] = true
		}
	}
	for e := range need {
		if r.truthAt(e) == nil {
			if e < 1 || int(e-1) > r.nextBatch {
				continue // an epoch no acknowledged swap produced
			}
			t := newTruth(r.modelAt(int(e - 1)).graph())
			r.truthMu.Lock()
			r.truths[e] = t
			r.truthMu.Unlock()
		}
	}
	for i := range reads {
		s := &reads[i]
		if s.resp == nil {
			continue
		}
		if t := r.truthAt(s.epoch); t != nil {
			r.verify(t, s)
		} else {
			r.failf("%s %s: answered from epoch %d, which no acknowledged swap produced", s.rq.method, s.rq.url, s.epoch)
			s.resp = nil
		}
	}
}

// finalTruth is the truth of the model with every acknowledged batch.
func (r *runner) finalTruth() *truth {
	e := uint64(r.nextBatch + 1)
	if t := r.truthAt(e); t != nil {
		return t
	}
	t := newTruth(r.modelAt(r.nextBatch).graph())
	r.truthMu.Lock()
	r.truths[e] = t
	r.truthMu.Unlock()
	return t
}

// recoverOnce kills d, restarts the daemon from the WAL alone and times
// until one request of each read class has been answered correctly.
// It then checks durability: the recovered m, skyline and a sample of
// dominators must match the model with every acknowledged batch.
func (r *runner) recoverOnce(d *daemon, walDir string, t *truth, cycle int) (*daemon, time.Duration, error) {
	d.kill()
	start := time.Now()
	nd, err := r.start(fmt.Sprintf("recover-%d", cycle), "-wal", walDir)
	if err != nil {
		return nil, 0, err
	}
	if !r.warm(nd, t) {
		r.failf("recovery %d: a read class did not answer correctly", cycle)
	}
	took := time.Since(start)

	c := newClient()
	defer c.CloseIdleConnections()
	r.attempted.Add(3)
	var st statsResp
	if err := getJSON(c, nd.base, "/v1/stats", &st); err != nil || st.N != t.g.N() || st.M != t.g.M() {
		r.failf("durability: recovered n=%d m=%d (%v), model has n=%d m=%d", st.N, st.M, err, t.g.N(), t.g.M())
	}
	var sky skylineResp
	if err := getJSON(c, nd.base, "/v1/skyline", &sky); err != nil {
		r.failf("durability: skyline: %v", err)
	} else if err := t.checkSkyline(&sky, defaultLimit); err != nil {
		r.failf("durability: skyline: %v", err)
	}
	p := newPRNG(r.cfg.seed, 0xd0e, uint64(cycle))
	ids := make([]int32, 32)
	parts := make([]string, len(ids))
	for i := range ids {
		ids[i] = int32(p.intn(t.g.N()))
		parts[i] = strconv.Itoa(int(ids[i]))
	}
	var dom dominatorsResp
	if err := getJSON(c, nd.base, "/v1/dominators?v="+strings.Join(parts, ","), &dom); err != nil {
		r.failf("durability: dominators: %v", err)
	} else if err := t.checkDominators(ids, &dom); err != nil {
		r.failf("durability: dominators: %v", err)
	}
	return nd, took, nil
}

// run executes the whole benchmark: set-up, measured window, write
// probe, crash recovery and, in a traced run, the per-layer pass.
func (r *runner) run() (*result, map[string]any, error) {
	if err := r.prepare(); err != nil {
		return nil, nil, err
	}
	t0 := r.truths[1]

	// Set-up: launch to warm, three times on fresh WAL directories; the
	// last daemon is the measured one.
	const setups = 3
	var setupTimes []time.Duration
	var d *daemon
	walDir := ""
	for i := 0; i < setups; i++ {
		walDir = filepath.Join(r.dir, fmt.Sprintf("wal-%d", i))
		start := time.Now()
		nd, err := r.start(fmt.Sprintf("setup-%d", i), "-input", r.snapPath, "-wal", walDir)
		if err != nil {
			return nil, nil, err
		}
		if !r.warm(nd, t0) {
			r.failf("set-up %d: warm-up answers failed", i)
		}
		setupTimes = append(setupTimes, time.Since(start))
		if i < setups-1 {
			nd.stop()
		} else {
			d = nd
		}
	}
	r.epoch = 1

	secs, swaps := r.window()
	win := r.pass(d, secs, r.w.readers, swaps, false)
	var traced, probe passResult
	var s0, s1, s2 counters
	var err error
	if r.cfg.trace {
		if s0, err = scrape(newClient(), d.base); err != nil {
			return nil, nil, fmt.Errorf("scrape: %w", err)
		}
		traced = r.pass(d, secs, r.w.readers, swaps, false)
		if s1, err = scrape(newClient(), d.base); err != nil {
			return nil, nil, fmt.Errorf("scrape: %w", err)
		}
	}
	r.verifyDeferred(win.reads)
	r.verifyDeferred(traced.reads)
	writes := win.writes
	if !r.w.writes {
		probe = r.pass(d, 0, 0, probeSwaps, true)
		writes = probe.writes
		if r.cfg.trace {
			if s2, err = scrape(newClient(), d.base); err != nil {
				return nil, nil, fmt.Errorf("scrape: %w", err)
			}
		}
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, nil, err
	}

	final := r.finalTruth()
	var recoverTimes []time.Duration
	for i := 0; i < restarts; i++ {
		var took time.Duration
		if d, took, err = r.recoverOnce(d, walDir, final, i); err != nil {
			return nil, nil, err
		}
		recoverTimes = append(recoverTimes, took)
	}
	d.stop()

	res := &result{Metrics: map[string]metric{}}
	info := r.info(win, writes)
	if r.cfg.trace {
		readD, writeD, wholeD := diff(s0, s1), diff(s0, s1), diff(s0, s1)
		if !r.w.writes {
			writeD, wholeD = diff(s1, s2), diff(s0, s2)
		}
		tw := traced.writes
		if !r.w.writes {
			tw = probe.writes
		}
		if err := r.traceLayers(res.Metrics, win, traced, tw, readD, writeD, wholeD); err != nil {
			return nil, nil, err
		}
		res.Metrics["failed_frac"] = metric{ratio(float64(r.failed.Load()), float64(r.attempted.Load())), "ratio"}
		res.Metrics["truncated_frac"] = metric{ratio(float64(r.truncated.Load()), float64(r.answered.Load())), "ratio"}
	} else {
		lat := latenciesMS(win.reads)
		var wlat []float64
		for _, w := range writes {
			wlat = append(wlat, ms(w.acked.Sub(w.due)))
		}
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{v, unit} }
		put("setup_s", "s", durMedian(setupTimes))
		put("read_p50_ms", "ms", percentile(lat, 50))
		put("read_p90_ms", "ms", percentile(lat, 90))
		put("read_qps", "1/s", float64(len(win.reads))/win.elapsed.Seconds())
		put("write_p50_ms", "ms", percentile(wlat, 50))
		put("recover_s", "s", durMedian(recoverTimes))
		put("rss_peak_mb", "MB", rss)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.failf("metric %s has no value", name)
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	res.Attempted = int(r.attempted.Load())
	res.Failed = int(r.failed.Load())
	res.Correct = res.Failed == 0
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "servebench: FAIL:", f)
	}
	return res, info, nil
}

func latenciesMS(reads []sample) []float64 {
	out := make([]float64, len(reads))
	for i, s := range reads {
		out[i] = ms(s.lat)
	}
	return out
}

// info is the run's context record: inputs, host and generator health.
func (r *runner) info(win passResult, writes []writeSample) map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	procs := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		procs = v
	}
	var lateMax, lateSum float64
	var wlat []float64
	for _, w := range writes {
		l := ms(w.sent.Sub(w.due))
		lateSum += l
		lateMax = math.Max(lateMax, l)
		wlat = append(wlat, ms(w.acked.Sub(w.due)))
	}
	// Ten swaps leave no percentile with ten samples beyond it, so the
	// write tail is context, not a bounded metric.
	writeTail := map[string]any{"samples": len(wlat)}
	if len(wlat) > 0 {
		writeTail["p90_ms"] = percentile(wlat, 90)
	}
	lat := latenciesMS(win.reads)
	tail := map[string]any{"samples": len(lat)}
	if p, ok := tailPercentile(len(lat)); ok {
		tail["pct"], tail["ms"] = p, percentile(lat, p)
	}
	clients := r.w.readers
	loop := fmt.Sprintf("closed, after the read window, %d swaps", probeSwaps)
	if r.w.writes {
		clients++
		loop = fmt.Sprintf("open, one swap due every %s during the read window", swapPeriod)
	}
	return map[string]any{
		"workload": r.cfg.workload, "seed": r.cfg.seed, "seconds": r.cfg.seconds, "trace": r.cfg.trace,
		"snapshot": map[string]any{"n": r.g0.N(), "m": r.g0.M(), "sha256_16": r.checksum,
			"recipe": fmt.Sprintf("chunglu n=%d m=%d beta=%g relabel", snapN, snapM, snapBeta)},
		"nproc": runtime.NumCPU(), "daemon_gomaxprocs": procs, "go": runtime.Version(), "cpu": cpu,
		"clients": clients, "fsync": "always", "swaps": len(writes), "swap_loop": loop,
		"checkpoint_every_swaps": ckptEvery, "generator_late_ms": map[string]float64{"max": lateMax, "mean": ratio(lateSum, float64(len(writes)))},
		"read_tail": tail, "write_tail": writeTail, "crash": "kill -9 keeps the OS page cache: this models a process crash, not a power loss",
	}
}
