// Command nsload replays mixed query traffic against a running nsserve
// daemon — skyline, dominators, clique and group-centrality reads plus
// concurrent snapshot swaps — and reports latency percentiles.
//
// Usage:
//
//	nsload -addr http://127.0.0.1:8080 -n 100000 -swaps 5
//
// The run fails (exit 1) if any query fails or observes a torn
// snapshot, so it doubles as the serving smoke test in scripts/check.sh.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"neisky/internal/cliutil"
	"neisky/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "nsserve base URL")
	n := flag.Int("n", 1000, "total read queries")
	workers := flag.Int("workers", 0, "concurrent query workers (0 = GOMAXPROCS)")
	swaps := flag.Int("swaps", 0, "snapshot swaps published while queries are in flight")
	swapOps := flag.Int("swap-ops", 8, "edge updates per swap batch")
	k := flag.Int("k", 2, "group size for centrality / list size for top-k clique queries")
	budget := flag.Int64("budget", 0, "per-query work budget (0 = none)")
	seed := flag.Uint64("seed", 1, "query-mix seed")
	retries := flag.Int("retries", 0, "max retries per query on 429/503 (0 = default 3, negative disables)")
	retryBackoff := flag.Duration("retry-backoff", 0, "initial retry backoff, doubling to a 500ms cap with jitter (0 = default 10ms)")
	timeout := flag.Duration("timeout", 0, "overall wall-clock limit for the run (0 = none)")
	flag.Parse()

	ctx, stop := cliutil.Context(*timeout)
	defer stop()

	base := strings.TrimSuffix(*addr, "/")
	rep, err := serve.RunLoad(ctx, serve.LoadOptions{
		BaseURL:      base,
		Queries:      *n,
		Workers:      *workers,
		Swaps:        *swaps,
		SwapOps:      *swapOps,
		K:            *k,
		Budget:       *budget,
		Seed:         *seed,
		Retries:      *retries,
		RetryBackoff: *retryBackoff,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nsload:", err)
		os.Exit(1)
	}

	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Printf("nsload: %s n=%d m=%d — %d queries, %d swaps, %d workers in %s (%.0f qps)\n",
		rep.Snapshot, rep.N, rep.M, rep.Queries, rep.Swaps, rep.Workers,
		time.Duration(rep.ElapsedNs).Round(time.Millisecond), rep.QPS)
	fmt.Printf("latency: p50=%.2fms p99=%.2fms max=%.2fms mean=%.2fms truncated=%d rejected=%d retries=%d failed=%d\n",
		ms(rep.P50Ns), ms(rep.P99Ns), ms(rep.MaxNs), ms(rep.MeanNs),
		rep.Truncated, rep.Rejected, rep.Retries, rep.Failed)
	for _, ep := range rep.Endpoints {
		fmt.Printf("  %-11s %7d queries  rejected=%-5d p50=%8.2fms  p99=%8.2fms  max=%8.2fms\n",
			ep.Endpoint, ep.Queries, ep.Rejected, ms(ep.P50Ns), ms(ep.P99Ns), ms(ep.MaxNs))
	}

	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "nsload: %d queries failed (first: %s)\n", rep.Failed, rep.FirstError)
		os.Exit(1)
	}
}
