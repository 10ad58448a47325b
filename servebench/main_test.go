package main

import (
	"net/http/httptest"
	"testing"
	"time"

	"neisky/internal/gen"
	"neisky/internal/serve"
)

// TestPassReadsAndWritesConcurrently drives an in-process daemon with
// two closed-loop readers and a closed-loop writer at once, so the race
// detector sees the runner's shared state (truths, tallies, request
// counter) used from several goroutines.
func TestPassReadsAndWritesConcurrently(t *testing.T) {
	g := gen.PowerLaw(3000, 12000, 2.5, 4)
	srv := serve.New(&serve.Snapshot{Graph: g, Name: "fixture"}, serve.Options{})
	hs := httptest.NewServer(srv.Handler())
	defer srv.Close()
	defer hs.Close()

	w := workloads["durable-writes"]
	r := &runner{cfg: config{workload: w.name, seed: 5}, w: w, truths: map[uint64]*truth{}, g0: g}
	r.truths[1] = newTruth(g)
	r.model = newEdgeModel(g)
	r.st = newStream(w, 5, g.N())
	const swaps = ckptEvery - 1 // the in-process daemon has no WAL to checkpoint
	r.batches = makeBatches(g, r.model, 5, swaps)
	for i := range r.batches {
		r.mAfter = append(r.mAfter, r.modelAt(i+1).graph().M())
	}
	r.epoch = 1

	res := r.pass(&daemon{base: hs.URL}, 300*time.Millisecond, 2, swaps, true)
	r.verifyDeferred(res.reads)
	if len(res.reads) == 0 || len(res.writes) != swaps {
		t.Fatalf("%d reads and %d writes, want some reads and %d writes", len(res.reads), len(res.writes), swaps)
	}
	if n := r.failed.Load(); n > 0 {
		t.Fatalf("%d failures: %v", n, r.failures)
	}
	for _, s := range res.reads {
		if !s.ok {
			t.Fatalf("read %s %s was not verified", s.rq.method, s.rq.url)
		}
	}
}
