package gen

import (
	"slices"
	"testing"
)

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
