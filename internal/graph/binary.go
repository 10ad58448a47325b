package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Binary serialization of the CSR representation, in two versions.
//
// Version 1 (legacy): a 16-byte header (magic, version, n, m as
// little-endian int32) followed by the offsets and adjacency arrays in
// little-endian int32. Loading is a straight copy — no edge-list
// re-sorting — so snapshots round-trip quickly.
//
// Version 2 (the mmap snapshot format, ".nsb2"): a 32-byte 8-byte-aligned
// header — magic (uint32), version (uint32), n (int64), m (int64),
// flags (uint64) — followed by the offsets array ((n+1)·int32), zero
// padding up to the next 8-byte boundary, then the adjacency array
// (2m·int32). Every array therefore starts at an 8-byte-aligned file
// offset, so an mmap of the file can expose the arrays as zero-copy
// int32 slices (see mmap.go). Flags bit 0 records that the snapshot was
// written with degree-descending relabeling (informational; the ids are
// dense either way).
//
// ReadBinary accepts both versions; writers choose with WriteBinary (v1)
// or WriteBinary2 (v2).

const (
	binaryMagic    = 0x4e53_4b59 // "NSKY"
	binaryVersion  = 1
	binaryVersion2 = 2

	// binaryHeader2Size is the fixed v2 header length in bytes.
	binaryHeader2Size = 32

	// FlagDegreeRelabeled marks a v2 snapshot whose vertex ids were
	// assigned in degree-descending order at conversion time.
	FlagDegreeRelabeled = uint64(1) << 0

	// FlagChecksum marks a v2 snapshot carrying an 8-byte footer after
	// the adjacency array: a CRC32C (Castagnoli) of the payload — every
	// byte after the header — in the first 4 bytes, 4 reserved zero
	// bytes after. Readers validate the footer when the flag is set;
	// files without it (older snapshots) still load. Both writers set it
	// unconditionally.
	FlagChecksum = uint64(1) << 1

	// binary2FooterSize is the checksum footer length in bytes (8, so the
	// footer itself keeps the file 8-byte aligned).
	binary2FooterSize = 8

	// maxBinaryN caps the vertex count a v1 binary header may claim. A
	// 16-byte header must not be able to trigger a multi-gigabyte
	// offsets allocation; 2^28 vertices is far beyond any graph the v1
	// format handles while keeping the worst-case offsets array at 1 GiB.
	maxBinaryN = 1 << 28
	// maxBinaryM caps the claimed v1 edge count for the same reason.
	maxBinaryM = 1 << 30

	// maxBinary2N / maxBinary2M are the v2 caps: ids stay int32 and the
	// offsets array stays int32-valued, so n ≤ 2^30 and 2m ≤ 2^31-1.
	// Allocation is still chunk-bounded, so a hostile header claiming the
	// caps fails after one chunk, not after a 4 GiB commit.
	maxBinary2N = 1 << 30
	maxBinary2M = 1<<30 - 1

	// binaryChunk is the int32 granularity of the hardened array reads:
	// allocations grow with bytes actually present in the input, so a
	// header overstating n or m fails after at most one chunk (256 KiB)
	// of over-allocation instead of committing to the full claim.
	binaryChunk = 1 << 16
)

// crc2Table is the CRC32C (Castagnoli) table behind FlagChecksum —
// deliberately the same polynomial as internal/wal's record framing, so
// the durability formats share one corruption-detection story.
var crc2Table = crc32.MakeTable(crc32.Castagnoli)

// crcWriter tees written bytes into a running CRC32C.
type crcWriter struct {
	w   io.Writer
	sum uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, crc2Table, p)
	return c.w.Write(p)
}

// crcReader accumulates a running CRC32C over bytes read.
type crcReader struct {
	r   io.Reader
	sum uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.sum = crc32.Update(c.sum, crc2Table, p[:n])
	return n, err
}

// readInt32Array reads exactly count little-endian int32s from r in
// binaryChunk-sized steps. The destination grows chunk by chunk, so
// memory use tracks the bytes the reader can actually produce rather
// than the (possibly hostile) declared count.
func readInt32Array(r io.Reader, count int, what string) ([]int32, error) {
	out := make([]int32, 0, min(count, binaryChunk))
	for len(out) < count {
		step := min(count-len(out), binaryChunk)
		chunk := make([]int32, step)
		if err := binary.Read(r, binary.LittleEndian, chunk); err != nil {
			return nil, fmt.Errorf("graph: binary %s: truncated after %d of %d entries: %w",
				what, len(out), count, err)
		}
		out = append(out, chunk...)
	}
	return out, nil
}

// WriteBinary serializes the graph to w in the legacy v1 format.
func (g *Graph) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := []int32{binaryMagic, binaryVersion, int32(g.N()), int32(g.M())}
	for _, h := range header {
		if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	if err := g.writeCSR(bw, nil); err != nil {
		return err
	}
	return bw.Flush()
}

// writeCSR writes the flat CSR arrays in little-endian int32, block by
// block: the n+1 offsets, then between (when non-nil), then the
// adjacency rows in vertex order. The bytes are those of one flat
// offsets and adjacency array, whatever blocks the graph shares.
func (g *Graph) writeCSR(w io.Writer, between func() error) error {
	var buf [4 * blockSize]byte
	put := func(vals []int32) error {
		for len(vals) > 0 {
			c := min(len(vals), blockSize)
			for i, v := range vals[:c] {
				binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
			}
			if _, err := w.Write(buf[:4*c]); err != nil {
				return err
			}
			vals = vals[c:]
		}
		return nil
	}
	var offs [blockSize]int32
	for k, b := range g.blocks {
		c := min(blockSize, g.n-k<<blockBits)
		for i := range offs[:c] {
			offs[i] = g.base[k] + b.off[i] - b.off[0]
		}
		if err := put(offs[:c]); err != nil {
			return err
		}
	}
	if err := put(g.base[len(g.blocks):]); err != nil {
		return err
	}
	if between != nil {
		if err := between(); err != nil {
			return err
		}
	}
	for _, b := range g.blocks {
		if err := put(b.adj[b.off[0]:b.off[blockSize]]); err != nil {
			return err
		}
	}
	return nil
}

// binary2Header is the fixed-size v2 header in file order.
type binary2Header struct {
	Magic   uint32
	Version uint32
	N       int64
	M       int64
	Flags   uint64
}

// binary2Padding returns the number of zero bytes between the offsets
// array and the adjacency array for an n-vertex v2 snapshot: the offsets
// occupy 4(n+1) bytes after the 32-byte header, so the gap is 4 bytes
// exactly when n is even.
func binary2Padding(n int) int {
	return (8 - (binaryHeader2Size+4*(n+1))%8) % 8
}

// WriteBinary2 serializes the graph to w in the 8-byte-aligned v2
// format, recording flags in the header. The payload CRC32C footer is
// always written (FlagChecksum is OR'd into flags).
func (g *Graph) WriteBinary2(w io.Writer, flags uint64) error {
	bw := bufio.NewWriter(w)
	h := binary2Header{
		Magic:   binaryMagic,
		Version: binaryVersion2,
		N:       int64(g.N()),
		M:       int64(g.M()),
		Flags:   flags | FlagChecksum,
	}
	if err := binary.Write(bw, binary.LittleEndian, h); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	err := g.writeCSR(cw, func() error {
		var pad [8]byte
		_, err := cw.Write(pad[:binary2Padding(g.N())])
		return err
	})
	if err != nil {
		return err
	}
	var ftr [binary2FooterSize]byte
	binary.LittleEndian.PutUint32(ftr[0:4], cw.sum)
	if _, err := bw.Write(ftr[:]); err != nil {
		return err
	}
	return bw.Flush()
}

// validateCSR checks every structural invariant a trusted Graph relies
// on: offsets endpoints and monotonicity, adjacency ids in range, no
// self-loops, strict per-window sorting. It does not check symmetry;
// see checkSymmetric.
func validateCSR(offsets, adj []int32, n, m int) error {
	if len(offsets) != n+1 || len(adj) != 2*m {
		return errors.New("graph: binary array lengths inconsistent with header")
	}
	if offsets[0] != 0 || offsets[n] != int32(2*m) {
		return errors.New("graph: binary offsets endpoints invalid")
	}
	for i := 0; i < n; i++ {
		if offsets[i] > offsets[i+1] {
			return errors.New("graph: binary offsets not monotone")
		}
	}
	for i := 0; i < n; i++ {
		window := adj[offsets[i]:offsets[i+1]]
		for j, v := range window {
			if v < 0 || v >= int32(n) || v == int32(i) {
				return errors.New("graph: binary adjacency out of range")
			}
			if j > 0 && window[j-1] >= v {
				return errors.New("graph: binary adjacency not sorted")
			}
		}
	}
	return nil
}

// checkSymmetric verifies that every directed edge has its reverse,
// using the galloping Has probe (O(Σ deg(u)·log deg(v))).
func checkSymmetric(g *Graph) error {
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if !g.Has(v, u) {
				return errors.New("graph: binary adjacency asymmetric")
			}
		}
	}
	return nil
}

// ReadBinary deserializes a graph written by WriteBinary or
// WriteBinary2, validating structural invariants so corrupted input
// cannot produce an inconsistent Graph. The arrays are read in chunks
// so a header claiming huge n/m with a short body fails cheaply; the
// offsets are validated before the adjacency is touched, so a hostile
// offsets array can never index out of a consistent CSR.
func ReadBinary(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic, version uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, errors.New("graph: not a neisky binary graph (bad magic)")
	}
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("graph: binary header: %w", err)
	}
	var n, m int
	var flags uint64
	switch version {
	case binaryVersion:
		var sizes [2]int32
		if err := binary.Read(br, binary.LittleEndian, &sizes); err != nil {
			return nil, fmt.Errorf("graph: binary header: %w", err)
		}
		n, m = int(sizes[0]), int(sizes[1])
		if n < 0 || m < 0 || n > maxBinaryN || m > maxBinaryM {
			return nil, errors.New("graph: implausible binary header")
		}
	case binaryVersion2:
		var rest struct {
			N, M  int64
			Flags uint64
		}
		if err := binary.Read(br, binary.LittleEndian, &rest); err != nil {
			return nil, fmt.Errorf("graph: binary header: %w", err)
		}
		if rest.N < 0 || rest.M < 0 || rest.N > maxBinary2N || rest.M > maxBinary2M {
			return nil, errors.New("graph: implausible binary header")
		}
		n, m = int(rest.N), int(rest.M)
		flags = rest.Flags
	default:
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	// When the snapshot carries a checksum footer, every payload byte is
	// accumulated into a CRC32C on the way through, validated against the
	// footer before the structural checks run.
	var src io.Reader = br
	var cr *crcReader
	if flags&FlagChecksum != 0 {
		cr = &crcReader{r: br}
		src = cr
	}
	offsets, err := readInt32Array(src, n+1, "offsets")
	if err != nil {
		return nil, err
	}
	if offsets[0] != 0 || offsets[n] != int32(2*m) {
		return nil, errors.New("graph: binary offsets endpoints invalid")
	}
	for i := 0; i < n; i++ {
		if offsets[i] > offsets[i+1] {
			return nil, errors.New("graph: binary offsets not monotone")
		}
	}
	if version == binaryVersion2 {
		var pad [8]byte
		if _, err := io.ReadFull(src, pad[:binary2Padding(n)]); err != nil {
			return nil, fmt.Errorf("graph: binary padding: %w", err)
		}
	}
	adj, err := readInt32Array(src, 2*m, "adjacency")
	if err != nil {
		return nil, err
	}
	if cr != nil {
		var ftr [binary2FooterSize]byte
		if _, err := io.ReadFull(br, ftr[:]); err != nil {
			return nil, fmt.Errorf("graph: binary checksum footer: %w", err)
		}
		if got := binary.LittleEndian.Uint32(ftr[0:4]); got != cr.sum {
			return nil, fmt.Errorf("graph: binary payload checksum mismatch (footer %08x, computed %08x)", got, cr.sum)
		}
	}
	if err := validateCSR(offsets, adj, n, m); err != nil {
		return nil, err
	}
	g := fromCSR(offsets, adj, m)
	if err := checkSymmetric(g); err != nil {
		return nil, err
	}
	return g, nil
}
