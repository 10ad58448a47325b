package core

import (
	"context"
	"errors"
	"testing"

	"neisky/internal/gen"
	"neisky/internal/graph"
	"neisky/internal/runctl"
	"neisky/internal/runctl/faultinject"
	"neisky/internal/testleak"
)

// cancelAtSeq installs a fault hook that cancels every checkpoint poll
// from sequence k on; the returned restore must be deferred.
func cancelAtSeq(k int64) func() {
	return faultinject.Set(func(seq int64) faultinject.Action {
		if seq >= k {
			return faultinject.ActionCancel
		}
		return faultinject.ActionNone
	})
}

// assertSuperset fails unless every vertex of want appears in got.
func assertSuperset(t *testing.T, got, want []int32, label string) {
	t.Helper()
	in := make(map[int32]bool, len(got))
	for _, v := range got {
		in[v] = true
	}
	for _, v := range want {
		if !in[v] {
			t.Fatalf("%s: vertex %d of the true skyline missing from the partial result", label, v)
		}
	}
}

// TestFilterRefineSkyCtxCancelMidRun cancels the serial pipeline at an
// early checkpoint and asserts the anytime contract: the run is marked
// truncated with the injected cause, and both the candidate set and the
// partial skyline are supersets of the true skyline (domination marks
// are only ever proven, never guessed).
func TestFilterRefineSkyCtxCancelMidRun(t *testing.T) {
	g := gen.PowerLaw(2000, 8000, 2.3, 11)
	truth := FilterRefineSky(g, Options{})

	defer cancelAtSeq(3)()
	res := FilterRefineSkyCtx(context.Background(), g, Options{})
	if !res.Truncated {
		t.Fatal("expected Truncated after injected cancellation")
	}
	if !errors.Is(res.Err, faultinject.ErrInjected) {
		t.Fatalf("Err = %v, want ErrInjected", res.Err)
	}
	assertSuperset(t, res.Skyline, truth.Skyline, "skyline")
	if len(res.Skyline) < len(truth.Skyline) {
		t.Fatalf("partial skyline smaller than the truth: %d < %d",
			len(res.Skyline), len(truth.Skyline))
	}
}

// TestParallelFilterPhaseCancelMidRun cancels the sharded engine, with
// the sharded path forced, at an early checkpoint under the race
// detector's eye: no goroutine leaks, and the surviving candidate set
// is still a sound superset of the true skyline.
func TestParallelFilterPhaseCancelMidRun(t *testing.T) {
	defer testleak.Check(t)()
	g := gen.PowerLaw(3000, 12000, 2.3, 12)
	truth := FilterRefineSky(g, Options{})

	defer cancelAtSeq(2)()
	res := ShardedFilterRefineSkyCtx(context.Background(), g, Options{NoParallelCutoff: true}, ShardOptions{Workers: 4})
	if !res.Truncated {
		t.Fatal("expected Truncated after injected cancellation")
	}
	assertSuperset(t, res.Candidates, truth.Skyline, "candidates")
}

// TestParallelFilterRefineSkyCancelMidRun drives the full sharded
// pipeline with a later mid-run cancel: no leaks, the injected cause in
// Result.Err, and both the partial skyline and the candidate list are
// sound supersets of the true skyline.
func TestParallelFilterRefineSkyCancelMidRun(t *testing.T) {
	defer testleak.Check(t)()
	g := gen.PowerLaw(3000, 12000, 2.3, 13)
	truth := FilterRefineSky(g, Options{})

	defer cancelAtSeq(5)()
	res := ShardedFilterRefineSkyCtx(context.Background(), g, Options{NoParallelCutoff: true}, ShardOptions{Workers: 4})
	if !res.Truncated {
		t.Fatal("expected Truncated after injected cancellation")
	}
	if !errors.Is(res.Err, faultinject.ErrInjected) {
		t.Fatalf("Err = %v, want ErrInjected", res.Err)
	}
	assertSuperset(t, res.Skyline, truth.Skyline, "skyline")
	assertSuperset(t, res.Candidates, truth.Skyline, "candidates")
}

// panicAtSeq installs a fault hook that panics at checkpoint poll k;
// the returned restore must be deferred.
func panicAtSeq(k int64) func() {
	return faultinject.Set(func(seq int64) faultinject.Action {
		if seq == k {
			return faultinject.ActionPanic
		}
		return faultinject.ActionNone
	})
}

// assertInjectedPanic fails unless res is a run that a worker panic
// stopped: truncated, the injected panic surfaced once as Result.Err
// wrapping *PanicError, and the partial skyline a sound superset.
func assertInjectedPanic(t *testing.T, res *Result, truth []int32) {
	t.Helper()
	if !res.Truncated {
		t.Fatal("a worker panic must truncate the result")
	}
	var pe *runctl.PanicError
	if !errors.As(res.Err, &pe) {
		t.Fatalf("Err = %v, want *runctl.PanicError", res.Err)
	}
	if _, ok := pe.Value.(*faultinject.InjectedPanic); !ok {
		t.Fatalf("panic value = %v, want the injected panic", pe.Value)
	}
	assertSuperset(t, res.Skyline, truth, "skyline")
}

// TestParallelFilterPhasePanicIsolated injects a worker panic into the
// sharded engine's context entry point: the process must survive, the
// panic must surface as Result.Err, siblings must drain, and no
// goroutine may leak. dynsky.New relies on exactly this: it panics when
// its seeding run comes back truncated.
func TestParallelFilterPhasePanicIsolated(t *testing.T) {
	defer testleak.Check(t)()
	g := gen.PowerLaw(3000, 12000, 2.3, 14)
	truth := FilterRefineSky(g, Options{})

	defer panicAtSeq(2)()
	res := ShardedFilterRefineSkyCtx(context.Background(), g, Options{NoParallelCutoff: true}, ShardOptions{Workers: 4})
	assertInjectedPanic(t, res, truth.Skyline)
}

// TestParallelFilterPhasePanicPlainAPI pins the same isolation on the
// non-context ShardedFilterRefineSky entry point: a worker panic comes
// back as an error instead of killing the process.
func TestParallelFilterPhasePanicPlainAPI(t *testing.T) {
	defer testleak.Check(t)()
	g := gen.PowerLaw(2000, 8000, 2.3, 15)
	truth := FilterRefineSky(g, Options{})

	defer panicAtSeq(1)()
	assertInjectedPanic(t, shardedAt(g, Options{}, 4), truth.Skyline)
}

// TestBudgetTruncatesSkyline bounds a skyline run by a work budget and
// checks the partial result is sound.
func TestBudgetTruncatesSkyline(t *testing.T) {
	g := gen.PowerLaw(4000, 16000, 2.3, 16)
	truth := FilterRefineSky(g, Options{})

	ctx := runctl.WithBudget(context.Background(), 1)
	res := FilterRefineSkyCtx(ctx, g, Options{})
	if !res.Truncated {
		t.Fatal("a 1-unit budget must truncate the run")
	}
	if !errors.Is(res.Err, runctl.ErrBudget) {
		t.Fatalf("Err = %v, want ErrBudget", res.Err)
	}
	assertSuperset(t, res.Skyline, truth.Skyline, "skyline")
}

// TestCtxVariantsMatchPlainOnLiveContext asserts the Ctx entry points
// are identical to the plain ones when the context never fires.
func TestCtxVariantsMatchPlainOnLiveContext(t *testing.T) {
	g := gen.PowerLaw(1500, 6000, 2.3, 17)
	want := FilterRefineSky(g, Options{})
	for _, tc := range []struct {
		name string
		run  func() *Result
	}{
		{"FilterRefineSkyCtx", func() *Result { return FilterRefineSkyCtx(context.Background(), g, Options{}) }},
		{"BaseSkyCtx", func() *Result { return BaseSkyCtx(context.Background(), g, Options{}) }},
		{"Base2HopCtx", func() *Result { return Base2HopCtx(context.Background(), g, Options{}) }},
		{"BaseCSetCtx", func() *Result { return BaseCSetCtx(context.Background(), g, Options{}) }},
		{"ShardedFilterRefineSkyCtx", func() *Result {
			return ShardedFilterRefineSkyCtx(context.Background(), g, Options{NoParallelCutoff: true}, ShardOptions{Workers: 4})
		}},
	} {
		got := tc.run()
		if got.Truncated || got.Err != nil {
			t.Fatalf("%s: spurious truncation: %v", tc.name, got.Err)
		}
		if !equalIDs(got.Skyline, want.Skyline) {
			t.Fatalf("%s: skyline mismatch", tc.name)
		}
	}
}

func equalIDs(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAllDominationsCtxCancelled checks the partial-order scan's
// anytime contract: recorded pairs are all real dominations.
func TestAllDominationsCtxCancelled(t *testing.T) {
	g := gen.PowerLaw(800, 3200, 2.3, 18)
	defer cancelAtSeq(2)()
	po := AllDominationsCtx(context.Background(), g, Options{})
	if !po.Truncated {
		t.Fatal("expected truncated partial order")
	}
	checkRecordedDominations(t, g, po)
}

func checkRecordedDominations(t *testing.T, g *graph.Graph, po *PartialOrder) {
	t.Helper()
	n := int32(g.N())
	count := 0
	for v := int32(0); v < n; v++ {
		if g.Degree(v) == 0 {
			continue // isolated vertices use definitional tie-breaking
		}
		for _, u := range po.Dominators[v] {
			if !Dominates(g, u, v) {
				t.Fatalf("recorded pair %d ≤ %d is not a real domination", v, u)
			}
			count++
			if count >= 200 {
				return // spot check is enough
			}
		}
	}
}
