package wal

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"neisky/internal/dynsky"
	"neisky/internal/graph"
	"neisky/internal/rng"
)

// randBatches builds count batches of mixed add/remove ops on n
// vertices. Removes target edges likely to exist (previously added),
// so batches exercise both effective and no-op updates.
func randBatches(n, count, batchLen int, seed uint64) [][]dynsky.Op {
	r := rng.New(seed)
	var added [][2]int32
	out := make([][]dynsky.Op, count)
	for i := range out {
		batch := make([]dynsky.Op, batchLen)
		for j := range batch {
			if len(added) > 0 && r.Intn(4) == 0 {
				e := added[r.Intn(len(added))]
				batch[j] = dynsky.Op{Add: false, U: e[0], V: e[1]}
				continue
			}
			u := int32(r.Intn(n))
			v := int32(r.Intn(n))
			for v == u {
				v = int32(r.Intn(n))
			}
			batch[j] = dynsky.Op{Add: true, U: u, V: v}
			added = append(added, [2]int32{u, v})
		}
		out[i] = batch
	}
	return out
}

// oracle replays batches through a fresh dynsky maintainer on base.
func oracle(base *graph.Graph, batches [][]dynsky.Op) *dynsky.Maintainer {
	m := dynsky.New(base)
	for _, b := range batches {
		m.Apply(b)
	}
	return m
}

// sameState asserts two maintainers agree on graph shape, edge list
// and skyline.
func sameState(t *testing.T, got, want *dynsky.Maintainer, label string) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: n/m = %d/%d, want %d/%d", label, got.N(), got.M(), want.N(), want.M())
	}
	if !slices.Equal(got.Graph().EdgeList(), want.Graph().EdgeList()) {
		t.Fatalf("%s: edge lists differ", label)
	}
	a, b := got.Skyline(), want.Skyline()
	if len(a) != len(b) {
		t.Fatalf("%s: skyline size %d, want %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: skyline[%d] = %d, want %d", label, i, a[i], b[i])
		}
	}
}

// initLog opens a log in a fresh temp dir and checkpoints base as its
// initial durable state (the daemon's first-boot path).
func initLog(t *testing.T, base *graph.Graph, o Options) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := l.Checkpoint(base); err != nil {
		t.Fatalf("initial Checkpoint: %v", err)
	}
	return l, dir
}

func TestAppendRecoverOracleEqual(t *testing.T) {
	const n = 120
	base := graph.NewBuilder(n).Build()
	l, dir := initLog(t, base, Options{Sync: SyncNone})
	batches := randBatches(n, 40, 6, 7)
	for i, b := range batches {
		seq, err := l.Append(b)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if want := uint64(i + 1); seq != want {
			t.Fatalf("Append %d: seq = %d, want %d", i, seq, want)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if r.TornTail {
		t.Fatal("TornTail on a clean log")
	}
	if r.Records != len(batches) || r.LastSeq != uint64(len(batches)) {
		t.Fatalf("recovered %d records to seq %d, want %d", r.Records, r.LastSeq, len(batches))
	}
	sameState(t, r.Replay(), oracle(base, batches), "recovered state")
}

func TestReopenResume(t *testing.T) {
	const n = 60
	base := graph.NewBuilder(n).Build()
	l, dir := initLog(t, base, Options{Sync: SyncAlways})
	batches := randBatches(n, 20, 4, 11)
	for _, b := range batches[:12] {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l2.LastSeq() != 12 {
		t.Fatalf("reopened LastSeq = %d, want 12", l2.LastSeq())
	}
	for _, b := range batches[12:] {
		if _, err := l2.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Records != 20 {
		t.Fatalf("recovered %d records, want 20", r.Records)
	}
	sameState(t, r.Replay(), oracle(base, batches), "resumed log")
}

func TestSegmentRotation(t *testing.T) {
	const n = 80
	base := graph.NewBuilder(n).Build()
	// Tiny segments: every few records rotates.
	l, dir := initLog(t, base, Options{Sync: SyncNone, SegmentBytes: 256})
	batches := randBatches(n, 30, 5, 13)
	for _, b := range batches {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if segs := l.Segments(); segs < 3 {
		t.Fatalf("Segments = %d with 256-byte segments, want several", segs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.Records != len(batches) {
		t.Fatalf("recovered %d records across segments, want %d", r.Records, len(batches))
	}
	sameState(t, r.Replay(), oracle(base, batches), "multi-segment recovery")
}

func TestTornTailTruncatedOnReplay(t *testing.T) {
	const n = 50
	base := graph.NewBuilder(n).Build()
	l, dir := initLog(t, base, Options{Sync: SyncAlways})
	batches := randBatches(n, 8, 4, 17)
	for _, b := range batches {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a partial frame at the tail of the
	// last segment.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	last := segs[len(segs)-1]
	torn := encodeRecord(nil, uint64(len(batches)+1), batches[0])
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2+3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover over torn tail: %v", err)
	}
	if !r.TornTail {
		t.Fatal("TornTail not reported")
	}
	if r.Records != len(batches) {
		t.Fatalf("recovered %d records, want the %d intact ones", r.Records, len(batches))
	}
	sameState(t, r.Replay(), oracle(base, batches), "torn-tail recovery")

	// Reopen truncates the torn frame; the next append reuses the seq.
	l2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if l2.LastSeq() != uint64(len(batches)) {
		t.Fatalf("LastSeq = %d after truncation, want %d", l2.LastSeq(), len(batches))
	}
	seq, err := l2.Append(batches[1])
	if err != nil {
		t.Fatal(err)
	}
	if seq != uint64(len(batches)+1) {
		t.Fatalf("post-truncation seq = %d, want %d", seq, len(batches)+1)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.TornTail || r2.Records != len(batches)+1 {
		t.Fatalf("after truncate+append: torn=%v records=%d, want clean %d",
			r2.TornTail, r2.Records, len(batches)+1)
	}
}

func TestCheckpointCompaction(t *testing.T) {
	const n = 90
	base := graph.NewBuilder(n).Build()
	l, dir := initLog(t, base, Options{Sync: SyncNone, SegmentBytes: 512})
	batches := randBatches(n, 24, 5, 19)
	m := dynsky.New(base)
	for i, b := range batches {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
		m.Apply(b)
		if i == 15 {
			seq, err := l.Checkpoint(m.Graph())
			if err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			if seq != 16 {
				t.Fatalf("Checkpoint seq = %d, want 16", seq)
			}
		}
	}
	// Compaction: exactly one checkpoint file, and no segment that
	// starts at or before the checkpoint except the active lineage.
	ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.nsb2"))
	if len(ckpts) != 1 || !strings.HasSuffix(ckpts[0], ckptName(16)) {
		t.Fatalf("checkpoints on disk = %v, want exactly %s", ckpts, ckptName(16))
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	for _, s := range segs {
		if filepath.Base(s) < segName(17) {
			t.Fatalf("segment %s survived compaction past checkpoint 16", s)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r.CheckpointSeq != 16 || r.Records != len(batches)-16 {
		t.Fatalf("recovered ckpt=%d tail=%d, want 16 and %d", r.CheckpointSeq, r.Records, len(batches)-16)
	}
	sameState(t, r.Replay(), oracle(base, batches), "checkpoint+tail recovery")
}

func TestSyncPolicies(t *testing.T) {
	const n = 40
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(p.String(), func(t *testing.T) {
			base := graph.NewBuilder(n).Build()
			l, dir := initLog(t, base, Options{Sync: p, SyncEvery: 1})
			batches := randBatches(n, 10, 3, 23)
			for _, b := range batches {
				if _, err := l.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := Recover(dir)
			if err != nil {
				t.Fatal(err)
			}
			if r.Records != len(batches) {
				t.Fatalf("recovered %d records under %s, want %d", r.Records, p, len(batches))
			}
			sameState(t, r.Replay(), oracle(base, batches), p.String())
		})
	}
}

// TestParsePolicy pins nsserve's -wal-sync spellings: every policy
// round-trips through String, and an unknown name is an error.
func TestParsePolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		if got, err := ParsePolicy(p.String()); err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", p.String(), got, err, p)
		}
	}
	for _, s := range []string{"", "Always", "fsync", "SyncPolicy(3)"} {
		if _, err := ParsePolicy(s); err == nil {
			t.Errorf("ParsePolicy(%q) accepted an unknown policy", s)
		}
	}
}

func TestCorruptMidLogFails(t *testing.T) {
	const n = 40
	base := graph.NewBuilder(n).Build()
	l, dir := initLog(t, base, Options{Sync: SyncNone, SegmentBytes: 200})
	for _, b := range randBatches(n, 12, 4, 29) {
		if _, err := l.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
	if len(segs) < 3 {
		t.Fatalf("want ≥3 segments, got %d", len(segs))
	}
	// Flip a payload byte in the FIRST segment: that is corruption in
	// acknowledged history, not a torn tail, and must fail loudly.
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("Recover accepted mid-log corruption")
	}
}

func TestAppendValidation(t *testing.T) {
	base := graph.NewBuilder(10).Build()
	l, _ := initLog(t, base, Options{Sync: SyncNone})
	defer l.Close()
	if _, err := l.Append(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := l.Append(make([]dynsky.Op, maxRecordOps+1)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := l.Append([]dynsky.Op{{Add: true, U: 0, V: 1}}); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

func TestClosedAndWedged(t *testing.T) {
	base := graph.NewBuilder(10).Build()
	l, dir := initLog(t, base, Options{Sync: SyncNone})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]dynsky.Op{{Add: true, U: 0, V: 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append on closed log: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	_ = dir
}

func TestExists(t *testing.T) {
	dir := t.TempDir()
	if ok, err := Exists(dir); err != nil || ok {
		t.Fatalf("empty dir: Exists = %v, %v", ok, err)
	}
	if ok, err := Exists(filepath.Join(dir, "missing")); err != nil || ok {
		t.Fatalf("missing dir: Exists = %v, %v", ok, err)
	}
	base := graph.NewBuilder(5).Build()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Checkpoint(base); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if ok, err := Exists(dir); err != nil || !ok {
		t.Fatalf("initialized dir: Exists = %v, %v", ok, err)
	}
}
