package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// This file implements the durable half of the storage layer: Open
// attaches a write-ahead log to a directory, Recover rebuilds a database
// from the newest checkpoint plus the log tail, and Checkpoint writes a
// consistent state file pinned at a live read view and truncates the log
// below it. The checkpoint is a state file (format.go) like the one Save
// writes: log records of the types, atoms, links, index definitions and
// histogram states — so a recovered server starts with warm planner
// statistics — loaded through replay, the path the log tail takes after
// it.

const (
	ckptFile    = "checkpoint.mad"
	ckptTmpFile = ckptFile + ".tmp" // writeFile's temporary
)

// ErrNotDurable is returned by durability operations on a database that
// was constructed in memory (NewDatabase) instead of Open.
var ErrNotDurable = errors.New("storage: database has no write-ahead log (use Open)")

// Open recovers the database persisted in dir (creating an empty one on
// first use) and attaches a write-ahead log: every subsequent commit is
// fsynced — through the group-commit flusher — before it publishes. A
// torn record tail left by a crash is truncated away; everything before
// it replays.
func Open(dir string) (*Database, error) {
	return openWith(dir, osOpenWAL)
}

// openWith is Open with the log's file implementation injectable — the
// crash-injection harness and the group-commit benchmark enter here.
func openWith(dir string, openFn walOpenFunc) (*Database, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// A crash mid-checkpoint leaves its temporary file; the rename never
	// happened, so the previous checkpoint (if any) is still authoritative.
	os.Remove(filepath.Join(dir, ckptTmpFile))
	db, torn, err := recoverDir(dir)
	if err != nil {
		return nil, err
	}
	if torn != nil {
		// Drop the torn frame and everything after it, including any later
		// segments (none should exist — a torn tail only forms in the last
		// segment — but a corrupt directory must not resurrect records that
		// recovery refused to replay).
		for _, p := range torn.laterSegs {
			if err := os.Remove(p); err != nil {
				return nil, err
			}
		}
		if err := os.Truncate(torn.path, torn.off); err != nil {
			return nil, err
		}
		syncDir(dir)
	}
	segs, err := listWALSegments(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if len(segs) > 0 {
		next = segs[len(segs)-1] + 1
	}
	w, err := newWAL(dir, next, db.publishUpTo, openFn)
	if err != nil {
		return nil, err
	}
	db.wal = w
	db.dir = dir
	return db, nil
}

// Recover rebuilds a database from dir without attaching a log: newest
// checkpoint first, then the log tail in order, stopping at the first
// torn or checksum-failed record. The result is exactly the state an
// Open would serve; crash tests compare it against an in-memory twin.
func Recover(dir string) (*Database, error) {
	db, _, err := recoverDir(dir)
	return db, err
}

// Dir returns the directory backing this database, empty for an
// in-memory one.
func (db *Database) Dir() string { return db.dir }

// Close flushes and closes the write-ahead log, after waiting out an
// auto-checkpoint in flight (none starts afterwards). Commits issued
// after Close fail; readers keep working. Close on an in-memory database
// is a no-op.
func (db *Database) Close() error {
	if db.wal == nil {
		return nil
	}
	return db.wal.Close()
}

// WALCounters reports (records appended, fsyncs issued) since Open —
// zero for an in-memory database. Group commit shows up as syncs growing
// far slower than appends under concurrent committers.
func (db *Database) WALCounters() (appends, syncs int64) {
	if db.wal == nil {
		return 0, 0
	}
	return db.wal.Counters()
}

// SetAutoCheckpoint arms background checkpointing: when the live
// write-ahead log (record bytes appended since the last rotation)
// exceeds limit bytes, the flusher triggers Database.Checkpoint in the
// background, so a long-running server stops growing the log
// unboundedly. Each threshold crossing fires exactly one checkpoint —
// the trigger re-arms only after the checkpoint completes and its
// rotation has reset the live counter. A non-positive limit disables
// the trigger.
func (db *Database) SetAutoCheckpoint(limit int64) error {
	if db.wal == nil {
		return ErrNotDurable
	}
	db.wal.setAutoCheckpoint(limit, func() {
		if _, err := db.Checkpoint(); err == nil {
			db.autoCkpts.Add(1)
		}
	})
	return nil
}

// AutoCheckpoints reports how many background checkpoints the
// SetAutoCheckpoint trigger has completed.
func (db *Database) AutoCheckpoints() int64 { return db.autoCkpts.Load() }

// LiveWALBytes reports the record bytes appended to the log since its
// last rotation — the region a checkpoint has not yet covered. Zero for
// an in-memory database.
func (db *Database) LiveWALBytes() int64 {
	if db.wal == nil {
		return 0
	}
	return db.wal.liveBytes.Load()
}

// tornInfo describes where replay stopped: the segment holding the first
// torn frame, the byte offset of that frame, and any segments after it.
type tornInfo struct {
	path      string
	off       int64
	laterSegs []string
}

// recoverDir loads the newest checkpoint (if any) and replays the log
// tail on top.
func recoverDir(dir string) (*Database, *tornInfo, error) {
	var db *Database
	ckptTS := uint64(1)
	f, err := os.Open(filepath.Join(dir, ckptFile))
	switch {
	case err == nil:
		db, ckptTS, err = loadState(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("storage: reading checkpoint: %w", err)
		}
	case os.IsNotExist(err):
		db = NewDatabase()
	default:
		return nil, nil, err
	}
	torn, err := replaySegments(db, dir, ckptTS)
	if err != nil {
		return nil, nil, err
	}
	return db, torn, nil
}

// replaySegments replays every log record above ckptTS in segment order,
// advancing the clocks per record so a committed record is fully visible
// before the next applies. Replay ends at the first torn frame; an apply
// error (a record that contradicts the recovered state) is a hard error.
func replaySegments(db *Database, dir string, ckptTS uint64) (*tornInfo, error) {
	segs, err := listWALSegments(dir)
	if err != nil {
		return nil, err
	}
	for i, seg := range segs {
		path := filepath.Join(dir, walSegName(seg))
		off, torn, err := readWALSegment(path, func(ts uint64, ops []walOp) error {
			if ts <= ckptTS {
				return nil // already inside the checkpoint
			}
			if err := db.replay(ts, ops); err != nil {
				return err
			}
			db.latestTS.Store(ts)
			db.lastAlloc = ts
			return nil
		})
		if err != nil {
			return nil, err
		}
		if torn {
			t := &tornInfo{path: path, off: off}
			for _, s := range segs[i+1:] {
				t.laterSegs = append(t.laterSegs, filepath.Join(dir, walSegName(s)))
			}
			return t, nil
		}
	}
	return nil, nil
}

// replay redoes one commit's write set at its original timestamp — a log
// record's, or a state file's record at the state's timestamp. Replay
// IS applyOp — the path the commit itself took — so the recovered state
// cannot diverge from the one that wrote the log; what it adds is for
// input that arrives from disk instead of from a validating mutator (puts
// are re-checked against the type's description), and it books the
// counters and histograms but leaves drift-triggered ANALYZE to the live
// database.
func (db *Database) replay(ts uint64, ops []walOp) error {
	for i := range ops {
		op := &ops[i]
		if op.kind == walOpPut {
			c, err := db.container(op.name)
			if err == nil {
				op.atom, err = c.validate(op.atom.ID, op.atom.Vals)
			}
			if err != nil {
				return fmt.Errorf("storage: wal replay at ts %d: %w", ts, err)
			}
		}
		eff, err := db.applyOp(ts, op, nil)
		if err != nil {
			return fmt.Errorf("storage: wal replay at ts %d: %w", ts, err)
		}
		db.book(op, &eff)
	}
	return nil
}

// CheckpointStats summarizes one checkpoint.
type CheckpointStats struct {
	// TS is the commit timestamp the checkpoint captured — every commit
	// at or below it is inside the checkpoint file.
	TS uint64
	// SegmentsRemoved counts log segments truncated away.
	SegmentsRemoved int
}

// Checkpoint writes a consistent state file (see format.go) of the
// database — pinned at a live read view so vacuum cannot reclaim the
// versions it reads — with the index definitions and histogram states,
// then truncates the log below it. The state is taken at the newest
// allocated commit: the log rotates through the flusher queue first, so
// every covered record is durable (and in a closed segment) before the
// old segments go away. Concurrent commits proceed throughout; they land
// in the new segment.
func (db *Database) Checkpoint() (CheckpointStats, error) {
	var cs CheckpointStats
	if db.wal == nil {
		return cs, ErrNotDurable
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	// Pin and capture under the commit mutex: the timestamp, the schema's
	// type lists, the index definitions and the histogram states must all
	// describe the same commit prefix, or replaying the tail would
	// double-apply DDL or drift the statistics.
	db.commitMu.Lock()
	ts := db.lastAlloc
	state := db.captureState(ts)
	rotated, err := db.wal.enqueue(&walReq{rotate: true})
	db.commitMu.Unlock()
	defer state.pin.Close()
	if err != nil {
		return cs, err
	}
	// The rotation ack means every record ≤ ts is fsynced into a closed
	// segment: once the checkpoint file lands, those segments are
	// redundant.
	if err := <-rotated; err != nil {
		return cs, err
	}
	if db.ckptTestHook != nil {
		db.ckptTestHook()
	}
	// The file opens through the log's opener, so a fault injected into
	// the log reaches the checkpoint too.
	write := func(w io.Writer) error { return db.writeState(w, state) }
	if err := writeFile(db.wal.open, filepath.Join(db.dir, ckptFile), write); err != nil {
		return cs, err
	}
	cs.TS = ts

	// Every record ≤ ts lives in a segment below the current one (the
	// rotation barrier ordered it so); drop them.
	segs, err := listWALSegments(db.dir)
	if err != nil {
		return cs, err
	}
	cur := db.wal.Segment()
	for _, seg := range segs {
		if seg >= cur {
			continue
		}
		if err := os.Remove(filepath.Join(db.dir, walSegName(seg))); err != nil {
			return cs, err
		}
		cs.SegmentsRemoved++
	}
	syncDir(db.dir)
	return cs, nil
}
