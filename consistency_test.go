package neisky_test

import (
	"testing"

	"neisky"
	"neisky/internal/core"
	"neisky/internal/scjoin"
)

// TestDatasetConsistency runs every skyline implementation on every
// built-in dataset (scaled down) and demands byte-identical skylines —
// the integration-level version of the per-package oracle tests.
func TestDatasetConsistency(t *testing.T) {
	for _, name := range neisky.DatasetNames() {
		g, err := neisky.LoadDataset(name, 0.15)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := core.FilterRefineSky(g, core.Options{}).Skyline
		impls := map[string][]int32{
			"BaseSky":  core.BaseSky(g, core.Options{}).Skyline,
			"Base2Hop": core.Base2Hop(g, core.Options{}).Skyline,
			"BaseCSet": core.BaseCSet(g, core.Options{}).Skyline,
			"LC-Join":  scjoin.Skyline(g, core.Options{}).Skyline,
			"TT-Join":  scjoin.TrieSkyline(g, core.Options{}).Skyline,
			"Sharded":  core.ShardedFilterRefineSky(g, core.Options{NoParallelCutoff: true}, core.ShardOptions{Workers: 4}).Skyline,
			"Approx0":  core.ApproxSkyline(g, 0, core.Options{}).Skyline,
			"PartialOrder": core.AllDominations(g, core.Options{}).
				Skyline(),
			"Pendant": core.FilterRefineSky(g, core.Options{PendantFilter: true}).Skyline,
			"FullScan": core.FilterRefineSky(g,
				core.Options{FullTwoHopScan: true}).Skyline,
		}
		for label, got := range impls {
			if !core.EqualSkylines(got, want) {
				t.Fatalf("%s: %s skyline (%d) differs from FilterRefineSky (%d)",
					name, label, len(got), len(want))
			}
		}
	}
}

// TestDatasetSkylineStability pins the skyline sizes of the default
// datasets so accidental generator or algorithm drift is caught.
func TestDatasetSkylineStability(t *testing.T) {
	expect := map[string]struct{ n, r int }{
		"karate": {34, 15},
		"fig1":   {15, 8},
	}
	for name, want := range expect {
		g, err := neisky.LoadDataset(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := neisky.Skyline(g)
		if g.N() != want.n || len(r) != want.r {
			t.Fatalf("%s: n=%d |R|=%d, want n=%d |R|=%d",
				name, g.N(), len(r), want.n, want.r)
		}
	}
}
