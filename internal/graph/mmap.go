package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"unsafe"
)

// mmap-backed read-only graphs. A v2 binary snapshot (WriteBinary2 /
// the streaming converter) lays its offsets and adjacency arrays out at
// 8-byte-aligned file offsets, so the file can be mapped once and the
// CSR exposed as zero-copy int32 slices over the mapping: opening a
// multi-gigabyte snapshot costs one mmap plus a validation scan, not a
// copy into the heap, and the kernel pages adjacency in on demand.
//
// The same hostile-input hardening contract as ReadBinary applies: the
// header caps are enforced against the actual file size before any
// array is interpreted, and the full CSR invariants (offsets shape,
// adjacency range/sortedness, symmetry) are verified before the Graph
// is published, so a corrupted or adversarial snapshot yields an error,
// never an inconsistent Graph.

// Mapped is a Graph backed by an mmap'd v2 snapshot (or, on platforms
// without mmap support, a heap-loaded copy of one). It embeds *Graph,
// so it can be passed directly to every algorithm in the repository.
// Close releases the mapping; the Graph must not be used afterwards.
type Mapped struct {
	*Graph
	data   []byte // the live mapping; nil when heap-loaded
	adjOff int    // byte offset of the adjacency array within data
	flags  uint64 // v2 header flags
	closed bool
}

// Mmapped reports whether the graph aliases a live file mapping (false
// on the heap-loaded fallback path).
func (mg *Mapped) Mmapped() bool { return mg.data != nil }

// Flags returns the snapshot's v2 header flags (FlagDegreeRelabeled...).
func (mg *Mapped) Flags() uint64 { return mg.flags }

// Close unmaps the snapshot. After Close the embedded Graph's block
// table is nil, so a use-after-close fails with a Go panic rather than
// a segfault. Close is idempotent.
func (mg *Mapped) Close() error {
	if mg.closed {
		return nil
	}
	mg.closed = true
	mg.Graph.blocks = nil
	if mg.data == nil {
		return nil
	}
	data := mg.data
	mg.data = nil
	return munmapBytes(data)
}

// OpenMmap maps the v2 binary snapshot at path and returns a validated
// read-only Graph aliasing the mapping. The file descriptor is closed
// before returning (the mapping survives it), so an open Mapped holds
// no fd. On platforms without mmap support the snapshot is loaded into
// the heap instead and Close is a no-op; callers use the same lifecycle
// either way.
//
// Legacy v1 files are rejected: their layout is not alignment-padded
// and they predate the caps needed for mmap-scale graphs. Convert them
// once with nsgen -in <file> -o <file.nsb2>.
func OpenMmap(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < binaryHeader2Size {
		return nil, errors.New("graph: mmap: file too small for a v2 snapshot header")
	}
	if int64(int(size)) != size {
		return nil, errors.New("graph: mmap: file size exceeds address space")
	}
	if !mmapSupported {
		g, err := ReadBinary(f)
		if err != nil {
			return nil, err
		}
		return &Mapped{Graph: g}, nil
	}
	data, err := mmapBytes(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("graph: mmap %s: %w", path, err)
	}
	mg, err := mapFromBytes(data)
	if err != nil {
		munmapBytes(data)
		return nil, err
	}
	return mg, nil
}

// mapFromBytes interprets data (a whole mapped v2 file) as a CSR
// snapshot, validating the header against the actual byte count and
// then the full structural invariants. The validation scan runs under
// an MADV_SEQUENTIAL hint and the mapping is switched to MADV_RANDOM
// before returning — skyline probes are point lookups, not scans.
func mapFromBytes(data []byte) (*Mapped, error) {
	le := binary.LittleEndian
	if le.Uint32(data[0:4]) != binaryMagic {
		return nil, errors.New("graph: not a neisky binary graph (bad magic)")
	}
	if v := le.Uint32(data[4:8]); v != binaryVersion2 {
		if v == binaryVersion {
			return nil, errors.New("graph: mmap needs a v2 snapshot; convert the v1 file with nsgen -in <file> -o <file.nsb2>")
		}
		return nil, fmt.Errorf("graph: unsupported binary version %d", v)
	}
	n64 := int64(le.Uint64(data[8:16]))
	m64 := int64(le.Uint64(data[16:24]))
	flags := le.Uint64(data[24:32])
	if n64 < 0 || m64 < 0 || n64 > maxBinary2N || m64 > maxBinary2M {
		return nil, errors.New("graph: implausible binary header")
	}
	n, m := int(n64), int(m64)
	adjStart := binaryHeader2Size + 4*(n+1) + binary2Padding(n)
	need := int64(adjStart) + 8*int64(m)
	if flags&FlagChecksum != 0 {
		need += binary2FooterSize
	}
	if int64(len(data)) < need {
		return nil, fmt.Errorf("graph: binary snapshot truncated: header claims %d bytes, file has %d",
			need, len(data))
	}
	if flags&FlagChecksum != 0 {
		payloadEnd := need - binary2FooterSize
		adviseSequential(data)
		sum := crc32.Checksum(data[binaryHeader2Size:payloadEnd], crc2Table)
		if got := le.Uint32(data[payloadEnd : payloadEnd+4]); got != sum {
			return nil, fmt.Errorf("graph: binary payload checksum mismatch (footer %08x, computed %08x)", got, sum)
		}
	}
	offsets := unsafe.Slice((*int32)(unsafe.Pointer(&data[binaryHeader2Size])), n+1)
	var adj []int32
	if m > 0 {
		adj = unsafe.Slice((*int32)(unsafe.Pointer(&data[adjStart])), 2*m)
	}
	adviseSequential(data)
	if err := validateCSR(offsets, adj, n, m); err != nil {
		return nil, err
	}
	g := fromCSR(offsets, adj, m)
	g.borrowed = true
	if err := checkSymmetric(g); err != nil {
		return nil, err
	}
	adviseRandom(data)
	return &Mapped{Graph: g, data: data, adjOff: adjStart, flags: flags}, nil
}

// AdviseRange hints the kernel that the adjacency windows of vertices
// [lo, hi) are about to be scanned (MADV_WILLNEED on the byte span,
// page-aligned downward). The sharded skyline engine calls it as each
// shard's scan starts, so a cold mapping pages one shard in ahead of
// the walk instead of faulting per cache line. Best-effort and
// clamped: a no-op on heap-loaded fallbacks, closed mappings, or empty
// ranges.
func (mg *Mapped) AdviseRange(lo, hi int32) {
	if mg.data == nil || mg.closed {
		return
	}
	n := int32(mg.Graph.N())
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return
	}
	a := mg.adjOff + 4*int(mg.Graph.offset(lo))
	b := mg.adjOff + 4*int(mg.Graph.offset(hi))
	a &^= os.Getpagesize() - 1
	if a < b && b <= len(mg.data) {
		adviseWillNeed(mg.data[a:b])
	}
}

// WriteBinaryFile writes the graph to path in the v2 snapshot format
// (atomically: a temp file in the same directory, renamed on success).
func (g *Graph) WriteBinaryFile(path string, flags uint64) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".nsb2-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	err = g.WriteBinary2(tmp, flags)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadBinaryFile heap-loads a binary snapshot (either version) from
// path via ReadBinary.
func LoadBinaryFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
