package serve

import (
	"fmt"
	"net/http"
	"time"

	"neisky/internal/obs"
	"neisky/internal/wal"
)

// Write-ahead-log wiring. With a Log attached (AttachWAL), the server
// acknowledges a batch swap only after the processed op prefix is
// durable: swapFromOps appends to the WAL BEFORE publishing the new
// epoch, so a crash at any instant loses at most unacknowledged work
// and a restart (OpenDurable) recovers exactly the acknowledged state.
// File swaps cut the lineage over to the new graph by writing a fresh
// checkpoint before publishing. Checkpoints — from the background
// ticker, POST /v1/checkpoint, or file swaps — compact the log so
// recovery time tracks the op tail since the last checkpoint, not the
// daemon's lifetime.

// RecoveryStats reports what OpenDurable rebuilt at startup.
type RecoveryStats struct {
	// Recovered is false when the directory was fresh and the base
	// snapshot seeded it.
	Recovered bool
	// CheckpointSeq / Records / LastSeq mirror wal.Recovered.
	CheckpointSeq uint64
	Records       int
	ReplayedOps   int
	LastSeq       uint64
	TornTail      bool
	// RecoverNs is the wall time of recovery (load + replay), 0 for a
	// fresh directory.
	RecoverNs int64
}

// OpenDurable opens the WAL directory and returns the serving snapshot
// plus the opened log positioned for appends.
//
// An initialized directory wins over base: the snapshot is the latest
// checkpoint with the acknowledged op tail applied to its rows (no
// skyline engine runs; see wal.Recovered.Latest), and base
// (the -input flag) is ignored — durable state outranks boot-time
// configuration. A fresh directory requires base and seeds the log with
// an initial checkpoint of it, so recovery is well-defined from the
// first acknowledged batch onward.
func OpenDurable(dir string, base *Snapshot, o wal.Options) (*Snapshot, *wal.Log, *RecoveryStats, error) {
	exists, err := wal.Exists(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	if !exists {
		if base == nil {
			return nil, nil, nil, fmt.Errorf("serve: wal directory %s is empty and no base snapshot was given", dir)
		}
		l, err := wal.Open(dir, o)
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := l.Checkpoint(base.Graph); err != nil {
			l.Close()
			return nil, nil, nil, fmt.Errorf("serve: initial checkpoint: %w", err)
		}
		return base, l, &RecoveryStats{}, nil
	}

	start := time.Now()
	r, err := wal.Recover(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("serve: wal recovery: %w", err)
	}
	snap := &Snapshot{
		Graph: r.Latest(),
		Name:  fmt.Sprintf("wal:%s@%d", dir, r.LastSeq),
	}
	st := &RecoveryStats{
		Recovered:     true,
		CheckpointSeq: r.CheckpointSeq,
		Records:       r.Records,
		ReplayedOps:   len(r.Ops),
		LastSeq:       r.LastSeq,
		TornTail:      r.TornTail,
		RecoverNs:     time.Since(start).Nanoseconds(),
	}
	// If base was also given, the durable state replaces it; closers on
	// the ignored snapshot must still be released.
	if base != nil && base.Closer != nil {
		_ = base.Closer.Close()
	}
	l, err := wal.Open(dir, o)
	if err != nil {
		return nil, nil, nil, err
	}
	return snap, l, st, nil
}

// AttachWAL couples the server to an opened log: batch swaps become
// ack-after-durable, POST /v1/checkpoint compacts on demand, and — when
// every > 0 — a background ticker checkpoints whenever new records have
// accumulated. Call before the server starts handling requests; the
// server takes over closing the log (Close checkpoints nothing, it only
// syncs and closes).
func (s *Server) AttachWAL(l *wal.Log, every time.Duration) {
	s.wal = l
	if every > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptWG.Add(1)
		go s.checkpointLoop(every)
	}
}

// WAL returns the attached log (nil when the server runs non-durably).
func (s *Server) WAL() *wal.Log { return s.wal }

func (s *Server) checkpointLoop(every time.Duration) {
	defer s.ckptWG.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			if s.wal.LastSeq() == s.wal.CheckpointSeq() {
				continue // nothing new to compact
			}
			if _, err := s.checkpointNow(); err != nil {
				if rec := obs.Get(); rec != nil {
					rec.Add("serve.checkpoint.errors", 1)
				}
			}
		}
	}
}

// checkpointNow snapshots the current epoch's graph into the WAL under
// the swap lock, so no append can land between capturing the graph and
// the checkpoint claiming its sequence.
func (s *Server) checkpointNow() (uint64, error) {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	pin := s.store.Acquire()
	if pin == nil {
		return 0, ErrClosed
	}
	g := pin.Graph()
	pin.Release()
	return s.wal.Checkpoint(g)
}

type checkpointResponse struct {
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	LastSeq       uint64 `json:"last_seq"`
	Segments      int    `json:"segments"`
	ElapsedNs     int64  `json:"elapsed_ns"`
}

// handleCheckpoint serves POST /v1/checkpoint: write a checkpoint of
// the current state and compact the log behind it.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.wal == nil {
		writeErr(w, http.StatusBadRequest, "server runs without a write-ahead log (-wal)")
		return
	}
	start := time.Now()
	seq, err := s.checkpointNow()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{
		CheckpointSeq: seq,
		LastSeq:       s.wal.LastSeq(),
		Segments:      s.wal.Segments(),
		ElapsedNs:     time.Since(start).Nanoseconds(),
	})
}

// stopCheckpointLoop is called from Close before the store drains.
func (s *Server) stopCheckpointLoop() {
	if s.ckptStop != nil {
		close(s.ckptStop)
		s.ckptWG.Wait()
		s.ckptStop = nil
	}
}
