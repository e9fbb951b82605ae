package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mad/internal/model"
	"mad/internal/storage/stats"
)

// The write-ahead log makes commits durable before they become visible:
// every commit appends one length-prefixed, CRC-checksummed record of its
// logical write set (atom puts, tombstones, link deltas, DDL) stamped
// with the commit timestamp, and latestTS publishes only after an fsync
// covers the record. Group commit is the throughput lever: committers
// enqueue their framed record and block, a single flusher goroutine
// drains the queue, writes the whole batch, issues ONE fsync, publishes
// the batch's highest timestamp and acks every waiter — N concurrent
// writers cost ~1 fsync instead of N.
//
// The log is segmented (wal-<n>.log). Checkpoint rotates to a fresh
// segment through the same queue (a barrier request), so every record at
// or below the checkpoint timestamp lives in closed segments that can be
// deleted once the checkpoint file is durable.

// walFile is the byte sink one log segment writes through. *os.File
// satisfies it; the crash-injection harness substitutes an implementation
// that fails, short-writes or "crashes" at the Nth write or fsync.
type walFile interface {
	io.Writer
	Sync() error
	Close() error
}

// walOpenFunc opens (creating, append-only) one segment file.
type walOpenFunc func(path string) (walFile, error)

// osOpenWAL is the production walOpenFunc.
func osOpenWAL(path string) (walFile, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// errWALClosed rejects commits after Database.Close.
var errWALClosed = errors.New("storage: wal closed")

// walOp kinds — the logical operations a commit is made of. Replay runs
// them through applyOp like the commit did, so cascades (link drops on
// atom deletion) are recomputed rather than logged.
const (
	walOpPut uint8 = iota + 1
	walOpDelete
	walOpConnect
	walOpDisconnect
	walOpAtomType1 // format 1's atom type, numbered at replay: refused
	walOpLinkType
	walOpCreateIndex
	walOpDropIndex
	walOpAtomType  // an atom type with the number it was given
	walOpHistogram // a histogram's state: written into state files only
)

// errFormat1 refuses a log record of format 1 (the logs written beside
// MADSNAP1 snapshots), whose atom types carry no type number:
// numbering them by replay order could give a type another's number.
var errFormat1 = errors.New("storage: format 1 (MADSNAP1) data names atom types without their type numbers; this build refuses it")

// walOp is one logical operation of a commit's write set — the unit
// applyOp installs, a Txn buffers and a log record carries.
type walOp struct {
	kind uint8
	// put constrains a walOpPut against the pre-state at its commit
	// timestamp, and marks a type op a Txn buffered (and reserved). It
	// lives in memory only: the log does not say whether a put inserted or
	// updated, and replay takes it either way — except from a state file,
	// whose puts all insert.
	put  uint8
	name string // atom-type, link-type, index or histogram target name
	atom model.Atom
	a, b model.AtomID // link endpoints; a is also the atom a delete removes
	// def is a definition's payload: a transaction buffers many ops, so the
	// rare kinds keep theirs behind one pointer.
	def *walDef
}

// walDef is what a type or index definition declares.
type walDef struct {
	attrs []model.AttrDesc // atom type
	num   model.TypeNum    // atom type
	link  model.LinkDesc   // link type
	attr  string           // index, histogram
	hist  *stats.State     // histogram
}

const (
	putUpsert  uint8 = iota // replayed: whichever the pre-state makes it
	putNew                  // insert, adopt: the identifier must not be live
	putReplace              // update: the atom must be live; type op: the name is reserved
)

// walRecHeader is the frame prefix: u32 payload length + u32 CRC32(payload).
const walRecHeader = 8

// maxWALRecord bounds a record's payload: replay treats a larger length
// prefix as a torn tail (a corrupt one cannot allocate unbounded memory),
// so encoding refuses to produce one. A variable only so tests can reach
// the bound without a gigabyte commit.
var maxWALRecord = 1 << 30

// encodeWALRecord frames one commit's write set: header plus a payload of
// commit timestamp, op count and ops. A payload over maxWALRecord is an
// error — the commit could never be replayed.
func encodeWALRecord(ts uint64, ops []*walOp) ([]byte, error) {
	var body bytes.Buffer
	w := newEncoder(&body)
	for _, op := range ops {
		w.op(op)
	}
	if err := w.flush(); err != nil {
		return nil, err
	}
	return frameRecord(make([]byte, 0, walRecHeader+8+binary.MaxVarintLen64+body.Len()), ts, len(ops), body.Bytes())
}

// frameRecord frames one record in buf's memory: the header, then the
// payload — ts, the op count n and ops, n encoded ops.
func frameRecord(buf []byte, ts uint64, n int, ops []byte) ([]byte, error) {
	rec := binary.LittleEndian.AppendUint64(append(buf[:0], make([]byte, walRecHeader)...), ts)
	rec = append(binary.AppendUvarint(rec, uint64(n)), ops...)
	body := rec[walRecHeader:]
	if len(body) > maxWALRecord {
		return nil, fmt.Errorf("storage: commit record of %d bytes exceeds the %d-byte log limit", len(body), maxWALRecord)
	}
	binary.LittleEndian.PutUint32(rec, uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(body))
	return rec, nil
}

// op writes one operation: its kind, the name it targets, its fields.
func (w *encoder) op(op *walOp) {
	w.u8(op.kind)
	w.str(op.name)
	switch op.kind {
	case walOpPut:
		w.u64(uint64(op.atom.ID))
		w.uvarint(uint64(len(op.atom.Vals)))
		for _, v := range op.atom.Vals {
			w.value(v)
		}
	case walOpDelete:
		w.u64(uint64(op.a))
	case walOpConnect, walOpDisconnect:
		w.u64(uint64(op.a))
		w.u64(uint64(op.b))
	case walOpAtomType:
		w.atomTypeDef(op.def.num, op.def.attrs)
	case walOpLinkType:
		w.linkTypeDef(op.def.link)
	case walOpCreateIndex, walOpDropIndex:
		w.str(op.def.attr)
	case walOpHistogram:
		w.str(op.def.attr)
		w.histState(op.def.hist)
	default:
		if w.err == nil {
			w.err = fmt.Errorf("storage: unknown wal op kind %d", op.kind)
		}
	}
}

// decodeWALPayload parses a checksum-verified record payload. Counts come
// from the input: slices grow only as entries are actually read, past a
// capacity of maxPresized, never to a capacity a corrupt count names.
func decodeWALPayload(body []byte) (ts uint64, ops []walOp, err error) {
	r := &decoder{b: body}
	ts = r.u64()
	n := r.uvarint()
	nums := map[model.TypeNum]bool{}
	name := ""
	for i := uint64(0); i < n && r.err == nil; i++ {
		op := walOp{kind: r.u8()}
		op.name = r.name(name)
		name = op.name
		switch op.kind {
		case walOpPut:
			op.atom.ID = model.AtomID(r.u64())
			nv := r.uvarint()
			op.atom.Vals = make([]model.Value, 0, min(nv, maxPresized))
			for j := uint64(0); j < nv && r.err == nil; j++ {
				op.atom.Vals = append(op.atom.Vals, r.value())
			}
		case walOpDelete:
			op.a = model.AtomID(r.u64())
		case walOpConnect, walOpDisconnect:
			op.a = model.AtomID(r.u64())
			op.b = model.AtomID(r.u64())
		case walOpAtomType:
			if op.def = r.atomTypeDef(); nums[op.def.num] && r.err == nil {
				return 0, nil, fmt.Errorf("storage: type number %d defined twice", op.def.num)
			}
			nums[op.def.num] = true
		case walOpLinkType:
			op.def = r.linkTypeDef()
		case walOpCreateIndex, walOpDropIndex:
			op.def = &walDef{attr: r.str()}
		case walOpHistogram:
			op.def = &walDef{attr: r.str()}
			op.def.hist = r.histState()
		case walOpAtomType1:
			return 0, nil, errFormat1
		default:
			if r.err == nil {
				return 0, nil, fmt.Errorf("storage: unknown wal op kind %d", op.kind)
			}
		}
		ops = append(ops, op)
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	return ts, ops, nil
}

// maxPresized is how many values a put's count sizes its slice for before
// the values are read: an atom of up to this many attributes decodes into
// one allocation.
const maxPresized = 16

// walSegName names segment files so lexicographic order is replay order.
func walSegName(seg uint64) string {
	return fmt.Sprintf("wal-%016d.log", seg)
}

// parseWALSegName extracts the segment number, ok=false for other files.
func parseWALSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listWALSegments returns the directory's segment numbers ascending.
func listWALSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range entries {
		if seg, ok := parseWALSegName(e.Name()); ok {
			segs = append(segs, seg)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// readWALSegment streams one segment's records through fn, stopping at
// the first torn frame (see readFrames). tornAt is the byte offset of that
// frame (== the segment size for a clean read) — recovery truncates there
// before appending again. fn errors abort the read (a real error, not a
// torn tail).
func readWALSegment(path string, fn func(ts uint64, ops []walOp) error) (tornAt int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	off, why, err := readFrames(bufio.NewReaderSize(f, 1<<16), fn)
	if errors.Is(err, errFormat1) {
		err = fmt.Errorf("%s: %w", path, err)
	}
	return off, why != nil, err
}

// readFrames streams framed records through fn — the one frame loop, for
// log segments and state files alike — until the input ends or a frame
// is torn: a truncated header or payload, a length over maxWALRecord, a
// CRC mismatch or a payload that does not decode. off is where the torn
// frame starts, or the bytes read; torn says what tore it. Format 1 data
// and fn's errors abort the read.
func readFrames(r io.Reader, fn func(ts uint64, ops []walOp) error) (off int64, torn, err error) {
	var head [walRecHeader]byte
	var body bytes.Buffer // grows as bytes arrive, never to a length a corrupt header names
	for {
		if _, err := io.ReadFull(r, head[:]); err != nil {
			if err == io.EOF {
				return off, nil, nil // clean end
			}
			return off, errors.New("storage: torn record header"), nil
		}
		size := binary.LittleEndian.Uint32(head[0:4])
		if int64(size) > int64(maxWALRecord) {
			return off, fmt.Errorf("storage: record length %d over the log limit", size), nil
		}
		body.Reset()
		if _, err := io.CopyN(&body, r, int64(size)); err != nil {
			return off, errors.New("storage: torn record payload"), nil
		}
		if crc32.ChecksumIEEE(body.Bytes()) != binary.LittleEndian.Uint32(head[4:8]) {
			return off, errors.New("storage: record checksum mismatch"), nil
		}
		ts, ops, err := decodeWALPayload(body.Bytes())
		if errors.Is(err, errFormat1) {
			return off, nil, err
		}
		if err != nil {
			return off, err, nil // frame intact but payload garbage
		}
		if err := fn(ts, ops); err != nil {
			return off, nil, err
		}
		off += walRecHeader + int64(size)
	}
}

// walReq is one queued flusher request: a framed commit record, or a
// rotation barrier (rec nil) that closes the current segment.
type walReq struct {
	ts     uint64
	rec    []byte
	rotate bool
	done   chan error
}

// walLog is the database's write-ahead log: an append-only segmented log
// with a single flusher goroutine providing group commit.
type walLog struct {
	dir     string
	open    walOpenFunc
	publish func(ts uint64)

	mu     sync.Mutex
	queue  []*walReq
	failed error
	signal chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup

	f   walFile
	seg atomic.Uint64

	// Observability counters: records appended, fsyncs issued. The
	// group-commit tests assert syncs ≪ appends under concurrency.
	appends atomic.Int64
	syncs   atomic.Int64

	// Auto-checkpoint: liveBytes counts record bytes appended since the
	// last rotation (the live, not-yet-checkpointed log). When ckptLimit
	// is positive and liveBytes crosses it, onCkpt fires exactly once —
	// ckptArmed latches until the checkpoint completes, so a long
	// checkpoint under continued write load cannot stack a second one.
	liveBytes atomic.Int64
	ckptLimit atomic.Int64
	ckptArmed atomic.Bool
	onCkpt    func() // guarded by mu
	// ckptWG counts the in-flight auto-checkpoint goroutine, so Close can
	// join it; Add happens under mu with onCkpt non-nil, which orders it
	// before Close's disarm.
	ckptWG sync.WaitGroup
}

// newWAL opens a fresh segment numbered seg and starts the flusher.
func newWAL(dir string, seg uint64, publish func(uint64), open walOpenFunc) (*walLog, error) {
	w := &walLog{
		dir:     dir,
		open:    open,
		publish: publish,
		signal:  make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	f, err := open(filepath.Join(dir, walSegName(seg)))
	if err != nil {
		return nil, err
	}
	w.f = f
	w.seg.Store(seg)
	syncDir(dir)
	w.wg.Add(1)
	go w.flusher()
	return w, nil
}

// healthy returns the sticky failure, if any. Commit paths check it
// before applying so a broken log stops accepting writes immediately.
func (w *walLog) healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// enqueue hands one request to the flusher — a framed commit record, or a
// rotation barrier, which acks once every record enqueued before it is
// durable — and returns the channel its acknowledgement arrives on.
func (w *walLog) enqueue(req *walReq) (chan error, error) {
	req.done = make(chan error, 1)
	w.mu.Lock()
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return nil, err
	}
	w.queue = append(w.queue, req)
	w.mu.Unlock()
	select {
	case w.signal <- struct{}{}:
	default:
	}
	return req.done, nil
}

// fail records the first error permanently; all subsequent commits are
// rejected. Applied-but-unpublished versions stay invisible forever (the
// clock never reaches them), which is exactly the recovery contract: an
// unacknowledged commit may not be observed.
func (w *walLog) fail(err error) {
	w.mu.Lock()
	if w.failed == nil {
		w.failed = err
	}
	w.mu.Unlock()
}

// flusher is the single goroutine with access to the segment file.
func (w *walLog) flusher() {
	defer w.wg.Done()
	for {
		select {
		case <-w.stop:
			w.drain()
			return
		case <-w.signal:
			w.drain()
		}
	}
}

// drain flushes queued requests until the queue is empty.
func (w *walLog) drain() {
	for {
		w.mu.Lock()
		batch := w.queue
		w.queue = nil
		w.mu.Unlock()
		if len(batch) == 0 {
			return
		}
		w.flushBatch(batch)
	}
}

// flushBatch writes a run of records, issues one fsync covering them,
// publishes the highest timestamp and acks — then handles any rotation
// barriers interleaved in the batch.
func (w *walLog) flushBatch(batch []*walReq) {
	i := 0
	for i < len(batch) {
		j := i
		for j < len(batch) && !batch[j].rotate {
			j++
		}
		if j > i {
			if err := w.writeRun(batch[i:j]); err != nil {
				w.fail(err)
				for _, req := range batch[i:] {
					req.done <- err
				}
				return
			}
		}
		if j < len(batch) {
			if err := w.rotateSegment(); err != nil {
				w.fail(err)
				for _, req := range batch[j:] {
					req.done <- err
				}
				return
			}
			batch[j].done <- nil
			j++
		}
		i = j
	}
}

// writeRun appends records back to back, syncs once, publishes and acks.
func (w *walLog) writeRun(run []*walReq) error {
	for _, req := range run {
		if _, err := w.f.Write(req.rec); err != nil {
			return err
		}
		w.appends.Add(1)
		w.liveBytes.Add(int64(len(req.rec)))
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	w.publish(run[len(run)-1].ts)
	for _, req := range run {
		req.done <- nil
	}
	w.maybeAutoCheckpoint()
	return nil
}

// setAutoCheckpoint installs the auto-checkpoint trigger: fire is called
// (off the flusher goroutine) when the live log crosses limit bytes; a
// non-positive limit disables the trigger.
func (w *walLog) setAutoCheckpoint(limit int64, fire func()) {
	w.mu.Lock()
	w.onCkpt = fire
	w.mu.Unlock()
	w.ckptLimit.Store(limit)
}

// maybeAutoCheckpoint fires the auto-checkpoint once per threshold
// crossing. It runs on the flusher goroutine after a write run, so the
// checkpoint itself must run elsewhere: Checkpoint enqueues a rotation
// barrier and waits for this very flusher to ack it — calling it inline
// would deadlock.
func (w *walLog) maybeAutoCheckpoint() {
	lim := w.ckptLimit.Load()
	if lim <= 0 || w.liveBytes.Load() < lim {
		return
	}
	if !w.ckptArmed.CompareAndSwap(false, true) {
		return // a checkpoint for this crossing is already in flight
	}
	w.mu.Lock()
	fire := w.onCkpt
	if fire != nil {
		w.ckptWG.Add(1)
	}
	w.mu.Unlock()
	if fire == nil {
		w.ckptArmed.Store(false)
		return
	}
	go func() {
		defer w.ckptWG.Done()
		fire()
		// Re-arm only after the checkpoint finished: its rotation reset
		// liveBytes, so the next crossing is a genuinely new one.
		w.ckptArmed.Store(false)
	}()
}

// rotateSegment closes the current segment and opens the next. Records
// written before the barrier were already synced by writeRun.
func (w *walLog) rotateSegment() error {
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.syncs.Add(1)
	if err := w.f.Close(); err != nil {
		return err
	}
	next := w.seg.Load() + 1
	f, err := w.open(filepath.Join(w.dir, walSegName(next)))
	if err != nil {
		return err
	}
	w.f = f
	w.seg.Store(next)
	// Rotation starts a fresh live region: everything before the barrier
	// is in closed segments a checkpoint is about to cover.
	w.liveBytes.Store(0)
	syncDir(w.dir)
	return nil
}

// Segment returns the current segment number.
func (w *walLog) Segment() uint64 { return w.seg.Load() }

// Counters reports appended records and fsyncs issued — the group-commit
// observability pair (syncs ≪ appends under concurrent committers).
func (w *walLog) Counters() (appends, syncs int64) {
	return w.appends.Load(), w.syncs.Load()
}

// Close rejects further commits, flushes the queue and closes the
// segment file. It first disarms the auto-checkpoint trigger and joins a
// checkpoint already in flight — while the flusher still runs, because
// the checkpoint waits on it to ack the rotation barrier. A checkpoint
// left running past Close would rename its file and prune segments under
// a later Open or Recover of the same directory, which could then load
// the old checkpoint and miss the pruned segments: every commit since
// that checkpoint lost.
func (w *walLog) Close() error {
	w.setAutoCheckpoint(0, nil)
	w.ckptWG.Wait()
	w.mu.Lock()
	already := w.failed != nil
	if w.failed == nil {
		w.failed = errWALClosed
	}
	w.mu.Unlock()
	close(w.stop)
	w.wg.Wait()
	if already {
		return nil // file state unknown after a failure; leave it
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return err
	}
	w.syncs.Add(1)
	return w.f.Close()
}

// syncDir fsyncs a directory so a freshly created or renamed entry
// survives a crash. Best effort: some filesystems reject directory
// fsync, and the data-file fsyncs still bound the loss window.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
