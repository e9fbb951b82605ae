package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"

	"mad/internal/catalog"
	"mad/internal/model"
	"mad/internal/storage/stats"
)

// This file owns the byte formats: the primitives every log record is
// written with, and the state file — the one durable form of a whole
// database, which Checkpoint writes as checkpoint.mad and Save writes
// anywhere. A state file is
//
//	"MADSTAT1" | u64 ts | log records … | CRC32 of every byte before it
//
// where the records are log frames (encodeWALRecord's) stamped ts whose
// ops define every atom type and link type with its number, put every
// atom under its identifier, connect every link, create every index
// (rebuilt by backfill, cheaper and safer than storing postings) and,
// last, restore every histogram. Loading reads them with the log's frame
// loop, decodes them with decodeWALPayload and applies them through
// replay — the path every commit and every log tail takes — so a state
// file holds nothing a commit could not have written. The trailing CRC32
// is what catches a file cut at a frame boundary; a torn frame inside a
// file whose checksum holds is an error, never a silent end of input.

// stateMagic opens a state file; the trailing digit is the format
// version. stateRefused names the formats a state file used to be in.
const (
	stateMagic   = "MADSTAT1"
	stateRefused = "MADSNAP1–3 and MADCKPT1–2 are snapshot and checkpoint formats this build no longer reads"
)

// stateRecordBytes is the encoded size at which a state file's writer
// cuts a record: far below maxWALRecord, so a state of any size frames.
const stateRecordBytes = 1 << 20

// encoder writes the primitives records are made of; its first error
// sticks and every later write is a no-op.
type encoder struct {
	w *bufio.Writer
	// out and sum are set for a whole durable file (newFileWriter): flush
	// ends the file with the CRC32 of every byte written before it.
	out io.Writer
	sum hash.Hash32
	err error
}

func newEncoder(out io.Writer) *encoder {
	return &encoder{w: bufio.NewWriter(out)}
}

// newFileWriter is newEncoder for a whole state file, which starts
// with stateMagic; loadState checks the magic and what flush appends.
func newFileWriter(out io.Writer) *encoder {
	sum := crc32.NewIEEE()
	w := newEncoder(io.MultiWriter(out, sum))
	w.out, w.sum = out, sum
	_, w.err = w.w.WriteString(stateMagic)
	return w
}

func (w *encoder) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

// uvarint and u64 encode into the buffer's free space, so no scratch
// array escapes to the heap.
func (w *encoder) uvarint(v uint64) {
	if w.err == nil {
		_, w.err = w.w.Write(binary.AppendUvarint(w.w.AvailableBuffer(), v))
	}
}

func (w *encoder) u64(v uint64) {
	if w.err == nil {
		_, w.err = w.w.Write(binary.LittleEndian.AppendUint64(w.w.AvailableBuffer(), v))
	}
}

func (w *encoder) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *encoder) boolean(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *encoder) flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil || w.sum == nil {
		return err
	}
	_, err := w.out.Write(binary.LittleEndian.AppendUint32(nil, w.sum.Sum32()))
	return err
}

// decoder decodes a record payload held in memory: a length read from
// it is checked against the bytes that remain, so no count or length in
// the input sizes an allocation beyond the input itself.
type decoder struct {
	b   []byte // what is left to read
	err error
}

// take consumes the next n bytes, nil once the input ran short.
func (r *decoder) take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = io.ErrUnexpectedEOF
	}
	if r.err != nil {
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *decoder) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *decoder) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *decoder) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *decoder) str() string { return string(r.take(r.uvarint())) }

// name reads a string that is most often prev — the name the op before
// targeted — and then returns prev rather than a copy.
func (r *decoder) name(prev string) string {
	if b := r.take(r.uvarint()); string(b) != prev {
		return string(b)
	}
	return prev
}

func (r *decoder) boolean() bool { return r.u8() != 0 }

// atomTypeDef writes an atom type's number and attributes, and
// linkTypeDef a link type's sides and cardinalities: a type definition's
// bytes after its name.
func (w *encoder) atomTypeDef(num model.TypeNum, attrs []model.AttrDesc) {
	w.uvarint(uint64(num))
	w.uvarint(uint64(len(attrs)))
	for _, ad := range attrs {
		w.str(ad.Name)
		w.u8(uint8(ad.Kind))
		w.boolean(ad.NotNull)
	}
}

func (w *encoder) linkTypeDef(l model.LinkDesc) {
	w.str(l.SideA)
	w.str(l.SideB)
	w.uvarint(uint64(l.CardA.Min))
	w.uvarint(uint64(l.CardA.Max))
	w.uvarint(uint64(l.CardB.Min))
	w.uvarint(uint64(l.CardB.Max))
}

// atomTypeDef reads what encoder.atomTypeDef wrote. It refuses a type
// number of 0 (it would make the zero AtomID valid) or one a TypeNum
// cannot hold. The attribute count comes from the input: the slice grows
// only as attributes are actually read.
func (r *decoder) atomTypeDef() *walDef {
	n := r.uvarint()
	if r.err == nil && (n == 0 || n > math.MaxUint16) {
		r.err = fmt.Errorf("storage: atom-type number %d out of range", n)
	}
	d := &walDef{num: model.TypeNum(n)}
	for i, na := uint64(0), r.uvarint(); i < na && r.err == nil; i++ {
		d.attrs = append(d.attrs, model.AttrDesc{Name: r.str(), Kind: model.Kind(r.u8()), NotNull: r.boolean()})
	}
	return d
}

// linkTypeDef reads what encoder.linkTypeDef wrote.
func (r *decoder) linkTypeDef() *walDef {
	d := &walDef{link: model.LinkDesc{SideA: r.str(), SideB: r.str()}}
	d.link.CardA = model.Cardinality{Min: int(r.uvarint()), Max: int(r.uvarint())}
	d.link.CardB = model.Cardinality{Min: int(r.uvarint()), Max: int(r.uvarint())}
	return d
}

// histState writes a histogram's exported state.
func (w *encoder) histState(st *stats.State) {
	w.value(st.Lower)
	w.uvarint(uint64(len(st.Buckets)))
	for _, b := range st.Buckets {
		w.value(b.Upper)
		w.u64(uint64(b.Count))
		w.u64(uint64(b.Distinct))
	}
	w.u64(uint64(st.Total))
	w.u64(uint64(st.Nulls))
	w.u64(uint64(st.Drift))
}

// histState reads what encoder.histState wrote. The bucket count comes
// from the input: the slice grows only as buckets are actually read.
func (r *decoder) histState() *stats.State {
	st := &stats.State{Lower: r.value()}
	for i, n := uint64(0), r.uvarint(); i < n && r.err == nil; i++ {
		st.Buckets = append(st.Buckets, stats.Bucket{Upper: r.value(), Count: int64(r.u64()), Distinct: int64(r.u64())})
	}
	st.Total, st.Nulls, st.Drift = int64(r.u64()), int64(r.u64()), int64(r.u64())
	return st
}

// value writes one attribute value.
func (w *encoder) value(v model.Value) {
	w.u8(uint8(v.Kind()))
	switch v.Kind() {
	case model.KNull:
	case model.KBool:
		b, _ := v.AsBool()
		w.boolean(b)
	case model.KInt:
		i, _ := v.AsInt()
		w.u64(uint64(i))
	case model.KFloat:
		f, _ := v.AsFloat()
		w.u64(math.Float64bits(f))
	case model.KString:
		s, _ := v.AsString()
		w.str(s)
	case model.KID:
		id, _ := v.AsID()
		w.u64(uint64(id))
	}
}

// value reads one attribute value.
func (r *decoder) value() model.Value {
	switch kind := model.Kind(r.u8()); kind {
	case model.KNull:
	case model.KBool:
		return model.Bool(r.boolean())
	case model.KInt:
		return model.Int(int64(r.u64()))
	case model.KFloat:
		return model.Float(math.Float64frombits(r.u64()))
	case model.KString:
		return model.Str(r.str())
	case model.KID:
		return model.ID(model.AtomID(r.u64()))
	default:
		if r.err == nil {
			r.err = fmt.Errorf("storage: unknown value kind %d", kind)
		}
	}
	return model.Null()
}

// stateWriter writes a state file: ops gather in a record body, framed
// and written whenever it reaches stateRecordBytes and once at the end.
type stateWriter struct {
	file  *encoder
	ts    uint64
	body  bytes.Buffer
	ops   *encoder // over body
	n     int      // ops in body
	frame []byte   // reused across records
}

func newStateWriter(out io.Writer, ts uint64) *stateWriter {
	s := &stateWriter{file: newFileWriter(out), ts: ts}
	s.file.u64(ts)
	s.ops = newEncoder(&s.body)
	return s
}

func (s *stateWriter) op(op *walOp) {
	s.ops.op(op)
	if s.n++; s.body.Len()+s.ops.w.Buffered() >= stateRecordBytes {
		s.cut()
	}
}

// cut frames the ops written since the last cut as one record.
func (s *stateWriter) cut() {
	err := s.ops.flush()
	if err == nil {
		s.frame, err = frameRecord(s.frame, s.ts, s.n, s.body.Bytes())
	}
	if err == nil && s.file.err == nil {
		_, err = s.file.w.Write(s.frame)
	}
	if err != nil && s.file.err == nil {
		s.file.err = err
	}
	s.body.Reset()
	s.n = 0
}

func (s *stateWriter) close() error {
	if s.n > 0 {
		s.cut()
	}
	return s.file.flush()
}

// stateCapture is what a state file records besides the occurrences,
// captured under commitMu with the view it pins, so the type lists, the
// index definitions and the histogram states describe the same commit
// prefix as the atoms and links read at pin.ts: a type defined after the
// pin stays out, so replaying its (higher-stamped) DDL record does not
// collide.
type stateCapture struct {
	pin       *Snapshot
	atomTypes []*catalog.AtomType
	linkTypes []*catalog.LinkType
	tail      []walOp // index creations, then histogram states
}

// captureState pins ts and captures the rest of the state beside it.
// Callers hold commitMu and close the pin.
func (db *Database) captureState(ts uint64) *stateCapture {
	s := &stateCapture{pin: db.snapshotAt(ts), atomTypes: db.schema.AtomTypes(), linkTypes: db.schema.LinkTypes()}
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, k := range slices.Sorted(maps.Keys(db.indexes)) {
		ix := db.indexes[k]
		s.tail = append(s.tail, walOp{kind: walOpCreateIndex, name: ix.typeName, def: &walDef{attr: ix.attr}})
	}
	for _, k := range slices.Sorted(maps.Keys(db.hists)) {
		ah := db.hists[k]
		st := ah.h.State()
		s.tail = append(s.tail, walOp{kind: walOpHistogram, name: ah.typeName, def: &walDef{attr: ah.attr, hist: &st}})
	}
	return s
}

// writeState writes s, and the occurrences at its pin, as a state file.
func (db *Database) writeState(out io.Writer, s *stateCapture) error {
	ts := s.pin.ts
	w := newStateWriter(out, ts)
	for _, at := range s.atomTypes {
		w.op(&walOp{kind: walOpAtomType, name: at.Name, def: &walDef{num: at.Num, attrs: at.Desc.Attrs()}})
	}
	for _, lt := range s.linkTypes {
		w.op(&walOp{kind: walOpLinkType, name: lt.Name, def: &walDef{link: lt.Desc}})
	}
	for _, at := range s.atomTypes {
		c, err := db.container(at.Name)
		if err != nil {
			return err
		}
		op := walOp{kind: walOpPut, name: at.Name}
		for _, op.atom = range c.atoms(ts) {
			w.op(&op)
		}
	}
	for _, lt := range s.linkTypes {
		ls, ok := db.LinkStore(lt.Name)
		if !ok {
			return fmt.Errorf("storage: unknown link type %q", lt.Name)
		}
		links, err := ls.connectOrder(ts)
		if err != nil {
			return err
		}
		op := walOp{kind: walOpConnect, name: lt.Name}
		for _, l := range links {
			op.a, op.b = l.A, l.B
			w.op(&op)
		}
	}
	for i := range s.tail {
		w.op(&s.tail[i])
	}
	return w.close()
}

// encodeState writes the database as of its latest published commit as
// a state file.
func (db *Database) encodeState(out io.Writer) error {
	db.commitMu.Lock()
	s := db.captureState(db.latestTS.Load())
	db.commitMu.Unlock()
	defer s.pin.Close()
	return db.writeState(out, s)
}

// Save writes the database as of its latest published commit to path as
// a state file — data, indexes and histograms — atomically: a crash
// mid-save leaves path as it was.
func Save(db *Database, path string) error {
	return writeFile(osOpenWAL, path, db.encodeState)
}

// Load reads a state file that Save or Checkpoint wrote into a new
// in-memory database whose clock publishes the state's commit.
func Load(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, _, err := loadState(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return db, nil
}

// writeFile writes a durable file: write fills path+".tmp", opened
// through open once a stale copy is gone (open appends), which is
// fsynced and renamed over path. The rename is the commit point — a crash
// on either side of it leaves path whole, old or new.
func writeFile(open walOpenFunc, path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	os.Remove(tmp)
	f, err := open(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// loadState reads a state file into a new database and returns it with
// the state's commit timestamp, which its clock publishes. Every record
// replays at that timestamp; its puts are insertions, so an identifier
// given twice is refused.
func loadState(in io.Reader) (*Database, uint64, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, 0, err
	}
	if !bytes.HasPrefix(data, []byte(stateMagic)) {
		return nil, 0, fmt.Errorf("storage: state file format %q, not %s (%s)", data[:min(len(data), len(stateMagic))], stateMagic, stateRefused)
	}
	end := len(data) - 4
	if end < len(stateMagic)+8 || crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, 0, fmt.Errorf("storage: state file checksum mismatch: the file is corrupt")
	}
	data = data[len(stateMagic):end]
	ts := binary.LittleEndian.Uint64(data)
	if ts == 0 {
		return nil, 0, fmt.Errorf("storage: state file at commit timestamp 0")
	}
	db := NewDatabase()
	off, torn, err := readFrames(bytes.NewReader(data[8:]), func(rts uint64, ops []walOp) error {
		if rts != ts {
			return fmt.Errorf("storage: state file at ts %d holds a record at ts %d", ts, rts)
		}
		for i := range ops {
			if ops[i].kind == walOpPut {
				ops[i].put = putNew
			}
		}
		return db.replay(ts, ops)
	})
	if err == nil && torn != nil {
		err = fmt.Errorf("storage: state file record at byte %d: %w", int64(len(stateMagic)+8)+off, torn)
	}
	if err != nil {
		return nil, 0, err
	}
	db.latestTS.Store(ts)
	db.lastAlloc = ts
	return db, ts, nil
}
