package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"neisky/internal/gen"
)

// streamBytes renders the first n requests of a stream as the exact
// bytes a client sends.
func streamBytes(s *stream, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		rq := s.at(i)
		fmt.Fprintf(&b, "%s %s\n%s\n", rq.method, rq.url, rq.body)
	}
	return b.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for name, w := range workloads {
		a := streamBytes(newStream(w, 7, 5000), 2000)
		b := streamBytes(newStream(w, 7, 5000), 2000)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different request streams", name)
		}
		if bytes.Equal(a, streamBytes(newStream(w, 8, 5000), 2000)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request stream", name)
		}
	}
}

func TestStreamFollowsMix(t *testing.T) {
	for name, w := range workloads {
		s := newStream(w, 3, 5000)
		counts := map[string]int{}
		const n = 20000
		for i := 0; i < n; i++ {
			counts[s.at(i).class]++
		}
		for _, e := range w.mix {
			share := 100 * float64(counts[e.class]) / n
			if share < float64(e.weight)-2 || share > float64(e.weight)+2 {
				t.Errorf("%s: %s is %.1f%% of requests, mix says %d%%", name, e.class, share, e.weight)
			}
		}
	}
}

func TestSameSeedSameBatches(t *testing.T) {
	g := gen.PowerLaw(2000, 8000, 2.5, 1)
	m := newEdgeModel(g)
	a, _ := json.Marshal(makeBatches(g, m, 5, 12))
	b, _ := json.Marshal(makeBatches(g, m, 5, 12))
	if !bytes.Equal(a, b) {
		t.Fatal("seed 5 gave two different batch sequences")
	}
	c, _ := json.Marshal(makeBatches(g, m, 6, 12))
	if bytes.Equal(a, c) {
		t.Fatal("seeds 5 and 6 gave the same batches")
	}
	if len(m.edges) != g.M() {
		t.Fatal("makeBatches changed the caller's model")
	}
}

func TestEveryBatchOpChangesTheGraph(t *testing.T) {
	g := gen.PowerLaw(2000, 8000, 2.5, 1)
	m := newEdgeModel(g)
	for bi, batch := range makeBatches(g, m, 9, 20) {
		if len(batch) != batchOps {
			t.Fatalf("batch %d has %d ops", bi, len(batch))
		}
		for _, o := range batch {
			if o.U == o.V || m.has(o.U, o.V) != !o.Add {
				t.Fatalf("batch %d: op %+v would not change the graph", bi, o)
			}
			m.apply(o)
		}
	}
	if got := m.graph(); got.M() != len(m.edges) {
		t.Fatalf("model graph has m=%d, model %d edges", got.M(), len(m.edges))
	}
}
