package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"neisky/internal/dynsky"
	"neisky/internal/graph"
)

// Recovered is the durable state reassembled from a log directory: the
// latest loadable checkpoint snapshot plus the intact record tail after
// it. Applying Ops (in order) to Graph, as Latest does, yields the
// state of the last acknowledged-and-durable record — the recovery
// invariant the crash battery proves.
type Recovered struct {
	// Graph is the latest checkpoint snapshot, nil when the directory
	// has no checkpoint yet (a log that was never initialized).
	Graph *graph.Graph
	// CheckpointSeq is the record sequence the checkpoint covers.
	CheckpointSeq uint64
	// Ops is the flattened op tail: every record with seq >
	// CheckpointSeq, in append order.
	Ops []dynsky.Op
	// Records counts the tail records behind Ops.
	Records int
	// LastSeq is the sequence of the last intact record (==
	// CheckpointSeq when the tail is empty).
	LastSeq uint64
	// TornTail reports that the final segment ended in a torn record
	// (or a headerless segment), which recovery truncated away — the
	// expected signature of a crash mid-append, never an error.
	TornTail bool
	// SkippedCheckpoints counts checkpoint files that failed to load
	// (corrupt snapshot, bad CRC) and were passed over for an older one.
	SkippedCheckpoints int
}

// Recover reads the durable state from dir without modifying it. The
// torn tail, if any, is reported but not truncated — Open does the
// truncation when the daemon reopens the log for appending.
func Recover(dir string) (*Recovered, error) {
	ls, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	r := &Recovered{}
	// Latest loadable checkpoint wins; a corrupt one (e.g. a crash
	// during an unsynced write that still got renamed, or bit rot
	// caught by the v2 CRC) falls back to its predecessor, whose
	// covering segments are only removed after the successor durably
	// exists.
	for i := len(ls.ckpts) - 1; i >= 0; i-- {
		g, err := graph.LoadBinaryFile(filepath.Join(dir, ckptName(ls.ckpts[i])))
		if err != nil {
			r.SkippedCheckpoints++
			continue
		}
		r.Graph = g
		r.CheckpointSeq = ls.ckpts[i]
		break
	}
	if r.Graph == nil && len(ls.ckpts) > 0 {
		return nil, fmt.Errorf("wal: all %d checkpoints in %s are unreadable", len(ls.ckpts), dir)
	}
	r.LastSeq = r.CheckpointSeq

	for i, s := range ls.segs {
		last := i == len(ls.segs)-1
		if !last && ls.segs[i+1].firstSeq <= r.CheckpointSeq+1 {
			continue // wholly covered by the checkpoint
		}
		expect := s.firstSeq
		tail, err := scanSegment(filepath.Join(dir, s.name), s.firstSeq, func(seq uint64, ops []dynsky.Op) {
			if seq > r.CheckpointSeq {
				r.Ops = append(r.Ops, ops...)
				r.Records++
				r.LastSeq = seq
			}
		})
		if err != nil {
			return nil, err
		}
		if tail.headerTorn {
			if !last {
				return nil, fmt.Errorf("wal: segment %s has a corrupt header mid-log", s.name)
			}
			// A crash between segment creation and header write: the
			// file holds nothing acknowledged.
			r.TornTail = true
			break
		}
		if tail.torn {
			if !last {
				return nil, fmt.Errorf("wal: segment %s has a torn record mid-log", s.name)
			}
			r.TornTail = true
		}
		endSeq := expect - 1 + uint64(tail.records)
		if !last && ls.segs[i+1].firstSeq != endSeq+1 {
			return nil, fmt.Errorf("wal: sequence gap between %s (ends %d) and %s",
				s.name, endSeq, ls.segs[i+1].name)
		}
	}
	// The tail must connect to the checkpoint: a hole means acknowledged
	// records were lost in the middle, which no replay may paper over.
	if r.Records > 0 && r.LastSeq != r.CheckpointSeq+uint64(r.Records) {
		return nil, fmt.Errorf("wal: recovered %d tail records but sequences span %d..%d after checkpoint %d",
			r.Records, r.CheckpointSeq+1, r.LastSeq, r.CheckpointSeq)
	}
	return r, nil
}

// Latest applies the op tail to the checkpoint graph and returns the
// recovered graph. The tail is applied to a dynsky.Rows overlay, so
// only the rows it touches are patched and no skyline engine runs. The
// result never shares storage with Graph.
func (r *Recovered) Latest() *graph.Graph {
	rows := dynsky.NewRows(r.Graph)
	dynsky.ApplyRun(nil, r.Ops, rows.AddEdge, rows.RemoveEdge)
	return rows.Graph()
}

// Replay seeds a dynsky maintainer on the recovered graph (Latest),
// which is oracle-equal to applying the same acknowledged batches
// through internal/dynsky live.
func (r *Recovered) Replay() *dynsky.Maintainer {
	return dynsky.New(r.Latest())
}

// tailInfo is one segment's scan verdict.
type tailInfo struct {
	records    int   // intact records in this segment
	goodBytes  int64 // bytes up to and including the last intact record
	torn       bool  // a trailing partial/corrupt record frame was found
	headerTorn bool  // the segment header itself is short or invalid
}

// scanSegment walks one segment's records, invoking fn (when non-nil)
// per intact record, and classifies the tail. Framing anomalies are
// reported via tailInfo, not errors — the caller decides whether a torn
// tail is legal (final segment) or corruption (mid-log).
func scanSegment(path string, wantFirst uint64, fn func(seq uint64, ops []dynsky.Op)) (tailInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return tailInfo{}, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return tailInfo{}, err
	}
	return scanSegmentBytes(data, wantFirst, fn), nil
}

// scanSegmentBytes is scanSegment over an in-memory image (shared with
// FuzzWALReplay, which fuzzes exactly this parser).
func scanSegmentBytes(data []byte, wantFirst uint64, fn func(seq uint64, ops []dynsky.Op)) tailInfo {
	le := binary.LittleEndian
	if len(data) < segHeaderSize ||
		le.Uint32(data[0:4]) != segMagic ||
		le.Uint32(data[4:8]) != segVersion ||
		le.Uint64(data[8:16]) != wantFirst {
		return tailInfo{headerTorn: true}
	}
	t := tailInfo{goodBytes: segHeaderSize}
	at := int64(segHeaderSize)
	expect := wantFirst
	for {
		rest := data[at:]
		if len(rest) == 0 {
			return t // clean end
		}
		if len(rest) < recHeaderSize {
			t.torn = true
			return t
		}
		length := int64(le.Uint32(rest[0:4]))
		crc := le.Uint32(rest[4:8])
		if length < recPayloadFixed || length > maxRecordBytes ||
			int64(len(rest)) < recHeaderSize+length {
			t.torn = true
			return t
		}
		payload := rest[recHeaderSize : recHeaderSize+length]
		if crc32.Checksum(payload, castagnoli) != crc {
			t.torn = true
			return t
		}
		seq := le.Uint64(payload[0:8])
		kind := payload[8]
		count := int64(le.Uint32(payload[9:13]))
		if seq != expect || kind != recordKindOps ||
			count > maxRecordOps || recPayloadFixed+count*opBytes != length {
			// A CRC-valid frame that contradicts its position: treat as
			// the tail boundary rather than guessing.
			t.torn = true
			return t
		}
		if fn != nil {
			ops := make([]dynsky.Op, count)
			p := payload[recPayloadFixed:]
			for i := range ops {
				ops[i] = dynsky.Op{
					Add: p[0] == 1,
					U:   int32(le.Uint32(p[1:5])),
					V:   int32(le.Uint32(p[5:9])),
				}
				p = p[opBytes:]
			}
			fn(seq, ops)
		}
		expect++
		t.records++
		at += recHeaderSize + length
		t.goodBytes = at
	}
}

// errNotDir distinguishes "no log here" for callers probing a path.
var errNotDir = errors.New("wal: not a directory")

// Exists reports whether dir looks like an initialized log directory
// (has at least one checkpoint or segment).
func Exists(dir string) (bool, error) {
	st, err := os.Stat(dir)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if !st.IsDir() {
		return false, fmt.Errorf("%w: %s", errNotDir, dir)
	}
	ls, err := scanDir(dir)
	if err != nil {
		return false, err
	}
	return len(ls.segs) > 0 || ls.hasCkpt, nil
}
