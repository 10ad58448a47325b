package paged

import (
	"slices"
	"testing"
)

// TestForkThenWriteLeavesOriginal pins copy-on-write: writes through a
// fork, and through the original after the fork, are invisible to the
// other side, and each copies only the page written.
func TestForkThenWriteLeavesOriginal(t *testing.T) {
	const n = 3*PageSize + 17
	want := make([]int32, n)
	for i := range want {
		want[i] = int32(i)
	}
	a := From(want)
	f := a.Fork()
	f.Set(5, -1)
	f.Set(2*PageSize+3, -2)
	if got := a.Slice(); !slices.Equal(got, want) {
		t.Fatal("a write through a fork changed the original")
	}
	if f.Get(5) != -1 || f.Get(2*PageSize+3) != -2 || f.Get(6) != 6 {
		t.Fatal("the fork lost its own writes or the entries it shares")
	}
	if a.Pages()[1] != f.Pages()[1] || a.Pages()[0] == f.Pages()[0] {
		t.Fatal("the fork copied a page it never wrote, or shares one it did")
	}

	// The fork's own pages are shared again by its next fork, so the
	// first fork's later writes must copy once more.
	g := f.Fork()
	f.Set(5, -3)
	if g.Get(5) != -1 {
		t.Fatal("a write after a second fork reached the fork")
	}
	a.Set(n-1, 99)
	if f.Get(n-1) != int32(n-1) || g.Get(n-1) != int32(n-1) {
		t.Fatal("a write to the original reached its forks")
	}
}

// TestNilPagesReadZero pins the lazily allocated state: a new array
// allocates no page, reads zero everywhere, and a write allocates only
// its own page.
func TestNilPagesReadZero(t *testing.T) {
	a := New[uint8](5*PageSize + 1)
	for _, i := range []int32{0, PageSize, 5 * PageSize} {
		if a.Get(i) != 0 {
			t.Fatalf("entry %d of a new array reads %d", i, a.Get(i))
		}
	}
	a.Set(PageSize+1, 7)
	for p, pg := range a.Pages() {
		if (pg != nil) != (p == 1) {
			t.Fatalf("page %d allocated: %v, want only page 1", p, pg != nil)
		}
	}
	f := a.Fork()
	f.Set(3*PageSize, 1)
	if a.Get(3*PageSize) != 0 || f.Get(PageSize+1) != 7 || a.Len() != f.Len() {
		t.Fatal("a fork of a partly allocated array diverged")
	}
	if got := len(a.Slice()); got != 5*PageSize+1 {
		t.Fatalf("Slice has %d entries", got)
	}
}
