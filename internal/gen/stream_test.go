package gen

import (
	"slices"
	"testing"
)

func TestSlidingWindowStream(t *testing.T) {
	ops := SlidingWindowStream(20, 100, 10, 7)
	adds, dels := 0, 0
	liveCount := 0
	maxLive := 0
	for _, op := range ops {
		if op.U == op.V {
			t.Fatal("self loop in stream")
		}
		if op.Add {
			adds++
			liveCount++
		} else {
			dels++
			liveCount--
		}
		if liveCount > maxLive {
			maxLive = liveCount
		}
	}
	if adds != 100 {
		t.Fatalf("adds = %d, want 100", adds)
	}
	if dels != 100-10 {
		t.Fatalf("dels = %d, want 90", dels)
	}
	if maxLive > 11 {
		t.Fatalf("window overflowed: %d live", maxLive)
	}
	// Determinism.
	ops2 := SlidingWindowStream(20, 100, 10, 7)
	for i := range ops {
		if ops[i] != ops2[i] {
			t.Fatal("stream not deterministic")
		}
	}
}

func TestStreamBADeterministic(t *testing.T) {
	edges := func() [][2]int32 {
		var out [][2]int32
		if err := StreamBA(500, 3, 17, func(u, v int32) error {
			out = append(out, [2]int32{u, v})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := edges()
	if len(want) == 0 {
		t.Fatal("StreamBA emitted no edges")
	}
	for i := 0; i < 20; i++ {
		if !slices.Equal(edges(), want) {
			t.Fatal("StreamBA not deterministic: same seed, different edge sequence")
		}
	}
}

func TestChurnStreamConsistent(t *testing.T) {
	g := PowerLaw(50, 120, 2.3, 3)
	ops := ChurnStream(g, 300, 9)
	// Replay against a fresh set and confirm no double-insert or
	// delete-of-absent.
	present := map[[2]int32]bool{}
	g.Edges(func(u, v int32) { present[[2]int32{u, v}] = true })
	for _, op := range ops {
		key := [2]int32{op.U, op.V}
		if op.Add {
			if present[key] {
				t.Fatal("insert of present edge")
			}
			present[key] = true
		} else {
			if !present[key] {
				t.Fatal("delete of absent edge")
			}
			delete(present, key)
		}
	}
}

func TestPreferentialStreamSkews(t *testing.T) {
	ops := PreferentialStream(200, 3000, 5)
	deg := map[int32]int{}
	for _, op := range ops {
		deg[op.U]++
		deg[op.V]++
	}
	max, sum := 0, 0
	for _, d := range deg {
		sum += d
		if d > max {
			max = d
		}
	}
	avg := float64(sum) / float64(len(deg))
	if float64(max) < 3*avg {
		t.Fatalf("no skew: max %d vs avg %.1f", max, avg)
	}
}
