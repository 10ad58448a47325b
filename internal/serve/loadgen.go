package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// LoadOptions configures a load-generator run against a live daemon.
type LoadOptions struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client overrides the HTTP client (nil = a fresh keep-alive
	// client sized for Workers connections).
	Client *http.Client
	// Queries is the total number of read queries to issue (default
	// 1000).
	Queries int
	// Workers is the number of concurrent query goroutines (default
	// GOMAXPROCS).
	Workers int
	// Swaps is how many snapshot swaps to publish while queries are in
	// flight, spaced evenly through the run.
	Swaps int
	// SwapOps is the edge-update batch size per swap (default 8).
	SwapOps int
	// K is the group size for centrality queries and the list size for
	// top-k clique queries (default 2).
	K int
	// Budget, when > 0, attaches a per-query work budget so even the
	// heaviest mix entries stay bounded.
	Budget int64
	// Seed makes the query mix reproducible.
	Seed uint64
	// Retries bounds how often a query is retried after an admission
	// rejection (429) or, for idempotent reads, a 503. 0 means the
	// default of 3; negative disables retries entirely.
	Retries int
	// RetryBackoff is the initial retry delay (default 10ms). Each
	// attempt doubles it up to a 500ms cap, with ±50% jitter so
	// rejected workers do not re-arrive in lockstep.
	RetryBackoff time.Duration
}

// EndpointStats is the per-endpoint slice of a load report.
type EndpointStats struct {
	Endpoint string `json:"endpoint"`
	Queries  int    `json:"queries"`
	Failed   int    `json:"failed"`
	Rejected int    `json:"rejected,omitempty"`
	P50Ns    int64  `json:"p50_ns"`
	P99Ns    int64  `json:"p99_ns"`
	MaxNs    int64  `json:"max_ns"`
}

// LoadReport summarizes one load-generator run.
type LoadReport struct {
	Snapshot  string          `json:"snapshot"`
	N         int             `json:"n"`
	M         int             `json:"m"`
	Queries   int             `json:"queries"`
	Failed    int             `json:"failed"`
	Rejected  int             `json:"rejected"`
	Retries   int             `json:"retries"`
	Truncated int             `json:"truncated"`
	Swaps     int             `json:"swaps"`
	Workers   int             `json:"workers"`
	ElapsedNs int64           `json:"elapsed_ns"`
	QPS       float64         `json:"qps"`
	MeanNs    int64           `json:"mean_ns"`
	P50Ns     int64           `json:"p50_ns"`
	P99Ns     int64           `json:"p99_ns"`
	MaxNs     int64           `json:"max_ns"`
	Endpoints []EndpointStats `json:"endpoints"`
	// FirstError is the first failure observed, for diagnostics.
	FirstError string `json:"first_error,omitempty"`
}

// the query mix: weights sum to 100. Skyline and dominators dominate
// (cheap point lookups in a real deployment), centrality and clique are
// the heavy tail.
const (
	mixSkyline    = 40
	mixDominators = 25
	mixClique     = 20
	// centrality takes the rest
)

type sample struct {
	endpoint int // index into endpointNames
	ns       int64
	failed   bool
	rejected bool // admission 429 after exhausting retries — not a failure
	retries  int
	trunc    bool
}

var endpointNames = []string{"skyline", "dominators", "clique", "centrality", "swap"}

// RunLoad replays Queries mixed read queries (plus Swaps concurrent
// snapshot swaps) against the daemon at BaseURL and reports latency
// percentiles. A query fails on transport error, a non-200 status, an
// unparseable body, or a torn read (a response whose vertex count
// disagrees with the served snapshot — edge batches never change n).
func RunLoad(ctx context.Context, o LoadOptions) (*LoadReport, error) {
	if o.Queries <= 0 {
		o.Queries = 1000
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.SwapOps <= 0 {
		o.SwapOps = 8
	}
	if o.K <= 0 {
		o.K = 2
	}
	client := o.Client
	if client == nil {
		tr := &http.Transport{
			MaxIdleConns:        2 * o.Workers,
			MaxIdleConnsPerHost: 2 * o.Workers,
		}
		client = &http.Client{Transport: tr, Timeout: 2 * time.Minute}
		defer tr.CloseIdleConnections()
	}

	// The stats probe pins the snapshot identity every later response
	// is checked against.
	var stats statsResponse
	if err := getJSON(ctx, client, o.BaseURL+"/v1/stats", &stats); err != nil {
		return nil, fmt.Errorf("stats probe: %w", err)
	}
	n := stats.N

	var (
		issued   atomic.Int64 // read queries handed out
		done     atomic.Int64 // read queries completed (swap pacing)
		firstErr atomic.Pointer[string]
	)
	recordErr := func(err error) {
		msg := err.Error()
		firstErr.CompareAndSwap(nil, &msg)
	}

	perWorker := make([][]sample, o.Workers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(o.Seed) + int64(w)*7919))
			samples := make([]sample, 0, o.Queries/o.Workers+1)
			for ctx.Err() == nil {
				if issued.Add(1) > int64(o.Queries) {
					break
				}
				s := runOne(ctx, client, o, rng, n)
				if s.failed {
					recordErr(fmt.Errorf("%s query failed", endpointNames[s.endpoint]))
				}
				samples = append(samples, s)
				done.Add(1)
			}
			perWorker[w] = samples
		}(w)
	}

	// The swapper publishes edge-batch swaps spaced through the run:
	// swap i fires once i/(Swaps+1) of the queries have completed, so
	// every swap races genuinely concurrent reads.
	swapsDone := 0
	var swapSamples []sample
	if o.Swaps > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(o.Seed) ^ 0x5eed5a))
			for i := 1; i <= o.Swaps && ctx.Err() == nil; i++ {
				gate := int64(i) * int64(o.Queries) / int64(o.Swaps+1)
				for done.Load() < gate && ctx.Err() == nil {
					time.Sleep(time.Millisecond)
				}
				s, err := runSwap(ctx, client, o, rng, n)
				if err != nil {
					recordErr(err)
				}
				swapSamples = append(swapSamples, s)
				swapsDone++
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	all := swapSamples
	for _, s := range perWorker {
		all = append(all, s...)
	}
	return buildReport(all, stats, o, swapsDone, elapsed, firstErr.Load()), nil
}

// runOne issues one read query from the mix and scores it.
func runOne(ctx context.Context, client *http.Client, o LoadOptions, rng *rand.Rand, n int) sample {
	budget := ""
	if o.Budget > 0 {
		budget = fmt.Sprintf("&budget=%d", o.Budget)
	}
	var (
		url      string
		endpoint int
	)
	switch p := rng.Intn(100); {
	case p < mixSkyline:
		endpoint = 0
		url = fmt.Sprintf("%s/v1/skyline?limit=64%s", o.BaseURL, budget)
	case p < mixSkyline+mixDominators:
		endpoint = 1
		ids := make([]byte, 0, 32)
		for i, k := 0, 1+rng.Intn(8); i < k; i++ {
			if i > 0 {
				ids = append(ids, ',')
			}
			ids = fmt.Appendf(ids, "%d", rng.Intn(n))
		}
		url = fmt.Sprintf("%s/v1/dominators?v=%s%s", o.BaseURL, ids, budget)
	case p < mixSkyline+mixDominators+mixClique:
		endpoint = 2
		k := 1
		if rng.Intn(2) == 0 {
			k = o.K
		}
		url = fmt.Sprintf("%s/v1/clique?k=%d%s", o.BaseURL, k, budget)
	default:
		endpoint = 3
		measure := []string{"closeness", "harmonic"}[rng.Intn(2)]
		url = fmt.Sprintf("%s/v1/centrality/group?k=%d&measure=%s%s", o.BaseURL, o.K, measure, budget)
	}

	t0 := time.Now()
	var body struct {
		meta
		Error string `json:"error"`
	}
	retries, err := doJSONRetry(ctx, client, o, rng, true, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	}, &body)
	ns := time.Since(t0).Nanoseconds()
	if isStatus(err, http.StatusTooManyRequests) {
		// The admission gate held: the daemon said "not now" every
		// attempt. That is overload working as designed, not a failure.
		return sample{endpoint: endpoint, ns: ns, rejected: true, retries: retries}
	}
	failed := err != nil || body.Error != "" || body.N != n || body.Epoch == 0
	return sample{endpoint: endpoint, ns: ns, failed: failed, retries: retries, trunc: body.Truncated}
}

// runSwap publishes one random edge-toggle batch.
func runSwap(ctx context.Context, client *http.Client, o LoadOptions, rng *rand.Rand, n int) (sample, error) {
	ops := make([]swapOp, o.SwapOps)
	for i := range ops {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		for v == u {
			v = int32(rng.Intn(n))
		}
		ops[i] = swapOp{Add: rng.Intn(2) == 0, U: u, V: v}
	}
	payload, _ := json.Marshal(swapRequest{Ops: ops})
	t0 := time.Now()
	var body swapResponse
	// Swaps retry only on 429: an admission rejection provably did not
	// apply the batch, while a 503 may have (partial WAL append), so
	// re-sending it could double-apply.
	retries, err := doJSONRetry(ctx, client, o, rng, false, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost,
			o.BaseURL+"/v1/snapshot/swap", bytes.NewReader(payload))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		return req, nil
	}, &body)
	ns := time.Since(t0).Nanoseconds()
	if isStatus(err, http.StatusTooManyRequests) {
		return sample{endpoint: 4, ns: ns, rejected: true, retries: retries}, nil
	}
	s := sample{endpoint: 4, ns: ns, failed: err != nil || body.N != n, retries: retries}
	if err != nil {
		return s, fmt.Errorf("swap: %w", err)
	}
	if body.N != n {
		return s, fmt.Errorf("swap: torn response n=%d want %d", body.N, n)
	}
	return s, nil
}

func getJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(client, req, out)
}

// statusError preserves the HTTP status of a non-200 response so the
// retry loop and the rejected/failed split can decide by code.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

// isStatus reports whether err is a statusError with the given code.
func isStatus(err error, code int) bool {
	var se *statusError
	return errors.As(err, &se) && se.code == code
}

// maxRetryBackoff caps the exponential retry delay.
const maxRetryBackoff = 500 * time.Millisecond

// doJSONRetry issues the request built by build, retrying with capped
// exponential backoff and ±50% jitter while the daemon answers 429 —
// or 503 too when the request is idempotent. build runs once per
// attempt so POST bodies get a fresh reader.
func doJSONRetry(ctx context.Context, client *http.Client, o LoadOptions, rng *rand.Rand, idempotent bool, build func() (*http.Request, error), out any) (retries int, err error) {
	maxRetries := o.Retries
	if maxRetries == 0 {
		maxRetries = 3
	} else if maxRetries < 0 {
		maxRetries = 0
	}
	base := o.RetryBackoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return retries, err
		}
		err = doJSON(client, req, out)
		if err == nil || attempt >= maxRetries {
			return retries, err
		}
		if !isStatus(err, http.StatusTooManyRequests) &&
			!(idempotent && isStatus(err, http.StatusServiceUnavailable)) {
			return retries, err
		}
		retries++
		d := base << attempt
		if d > maxRetryBackoff {
			d = maxRetryBackoff
		}
		d = d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
		select {
		case <-ctx.Done():
			return retries, ctx.Err()
		case <-time.After(d):
		}
	}
}

func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{
			code: resp.StatusCode,
			msg:  fmt.Sprintf("%s: status %d: %s", req.URL.Path, resp.StatusCode, firstLine(body)),
		}
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("%s: bad JSON: %w", req.URL.Path, err)
	}
	return nil
}

func firstLine(b []byte) string {
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		b = b[:i]
	}
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}

func buildReport(all []sample, stats statsResponse, o LoadOptions, swaps int, elapsed time.Duration, firstErr *string) *LoadReport {
	rep := &LoadReport{
		Snapshot:  stats.Snapshot,
		N:         stats.N,
		M:         stats.M,
		Swaps:     swaps,
		Workers:   o.Workers,
		ElapsedNs: elapsed.Nanoseconds(),
	}
	if firstErr != nil {
		rep.FirstError = *firstErr
	}
	perEP := make([][]int64, len(endpointNames))
	var allNs []int64
	var sum int64
	for _, s := range all {
		rep.Retries += s.retries
		if s.rejected {
			// Rejected queries produced no answer; they count in the
			// rejected column, not in failures or latency percentiles
			// (their duration is mostly backoff sleep).
			rep.Rejected++
			continue
		}
		if s.endpoint != 4 { // swaps are reported per-endpoint only
			rep.Queries++
			if s.failed {
				rep.Failed++
			}
			if s.trunc {
				rep.Truncated++
			}
			allNs = append(allNs, s.ns)
			sum += s.ns
		} else if s.failed {
			rep.Failed++
		}
		perEP[s.endpoint] = append(perEP[s.endpoint], s.ns)
	}
	if len(allNs) > 0 {
		rep.MeanNs = sum / int64(len(allNs))
		rep.P50Ns, rep.P99Ns, rep.MaxNs = percentiles(allNs)
		rep.QPS = float64(len(allNs)) / elapsed.Seconds()
	}
	failedEP := make([]int, len(endpointNames))
	rejectedEP := make([]int, len(endpointNames))
	for _, s := range all {
		switch {
		case s.rejected:
			rejectedEP[s.endpoint]++
		case s.failed:
			failedEP[s.endpoint]++
		}
	}
	for i, name := range endpointNames {
		if len(perEP[i]) == 0 && rejectedEP[i] == 0 {
			continue
		}
		var p50, p99, max int64
		if len(perEP[i]) > 0 {
			p50, p99, max = percentiles(perEP[i])
		}
		rep.Endpoints = append(rep.Endpoints, EndpointStats{
			Endpoint: name,
			Queries:  len(perEP[i]) + rejectedEP[i],
			Failed:   failedEP[i],
			Rejected: rejectedEP[i],
			P50Ns:    p50,
			P99Ns:    p99,
			MaxNs:    max,
		})
	}
	return rep
}

// percentiles sorts ns in place and returns p50, p99 and the max.
func percentiles(ns []int64) (p50, p99, max int64) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	idx := func(q float64) int64 { return ns[int(q*float64(len(ns)-1))] }
	return idx(0.50), idx(0.99), ns[len(ns)-1]
}
