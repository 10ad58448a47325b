// Package paged is a copy-on-write array in fixed pages, for per-vertex
// state that consecutive graph epochs share: dynsky's O array,
// skytree's layer and parent arrays, and the maintainers' scratch.
//
// An Array holds a table of page pointers. Fork copies only the table,
// so the fork and the original share every page, and the first write
// to a shared page copies that page alone. A swap that changes k
// entries therefore costs the table plus at most k pages, not the n
// entries a flat copy would. A nil page reads as zero and is allocated
// on its first write, so an all-zero array costs its table alone.
//
// An Array value is not safe for concurrent writes. A forked or From
// array owns no page, so it never writes one, and any number of
// goroutines may read and fork it.
package paged

// PageBits is log2 of PageSize.
const PageBits = 10

// PageSize is the number of entries per page: 4 KiB of int32s.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// Page is one page of entries.
type Page[T any] [PageSize]T

// Array is a fixed-length array of T in copy-on-write pages. The zero
// Array has length 0. Copy an Array only with Fork: a plain copy of
// the value shares the ownership bits and would let two writers write
// one page.
type Array[T any] struct {
	pages []*Page[T]
	own   []uint64 // bit p: pages[p] is this array's own copy
	owned int      // set bits in own
	n     int
}

// New returns an array of n zero entries; no page is allocated yet.
func New[T any](n int) Array[T] {
	np := (n + pageMask) >> PageBits
	return Array[T]{pages: make([]*Page[T], np), own: make([]uint64, (np+63)/64), n: n}
}

// From returns an array holding a copy of s, in pages cut from one
// allocation. It owns no page, so it is ready to publish.
func From[T any](s []T) Array[T] {
	a := New[T](len(s))
	backing := make([]Page[T], len(a.pages))
	for p := range a.pages {
		copy(backing[p][:], s[p<<PageBits:])
		a.pages[p] = &backing[p]
	}
	return a
}

// Len returns the number of entries.
func (a *Array[T]) Len() int { return a.n }

// Get returns entry i.
func (a *Array[T]) Get(i int32) T {
	if p := a.pages[i>>PageBits]; p != nil {
		return p[i&pageMask]
	}
	var zero T
	return zero
}

// Set writes entry i, first copying its page when another array may
// share it.
func (a *Array[T]) Set(i int32, v T) {
	p := i >> PageBits
	if a.own[p>>6]&(1<<(p&63)) == 0 {
		a.copyPage(p)
	}
	a.pages[p][i&pageMask] = v
}

// copyPage gives a its own copy of page p (a zeroed page for nil).
func (a *Array[T]) copyPage(p int32) {
	pg := new(Page[T])
	if old := a.pages[p]; old != nil {
		*pg = *old
	}
	a.pages[p] = pg
	a.own[p>>6] |= 1 << (p & 63)
	a.owned++
}

// Fork returns an array with a's entries that shares every page with
// a. Neither owns a page afterwards, so each copies a page on its first
// write to it. Forking an array that owns no page writes nothing to it.
func (a *Array[T]) Fork() Array[T] {
	if a.owned > 0 {
		clear(a.own)
		a.owned = 0
	}
	f := Array[T]{pages: make([]*Page[T], len(a.pages)), own: make([]uint64, len(a.own)), n: a.n}
	copy(f.pages, a.pages)
	return f
}

// Pages returns the page table, for loops that read entries inline
// (core.Level). Entry i is Pages()[i>>PageBits][i&(PageSize-1)], and a
// nil page reads as zero. Writes through a keep the table itself, so a
// held table sees them; callers must not modify it.
func (a *Array[T]) Pages() []*Page[T] { return a.pages }

// Slice returns a flat copy of the entries.
func (a *Array[T]) Slice() []T {
	out := make([]T, a.n)
	for p, pg := range a.pages {
		if pg != nil {
			copy(out[p<<PageBits:], pg[:])
		}
	}
	return out
}
