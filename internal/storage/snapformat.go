package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"mad/internal/catalog"
	"mad/internal/model"
)

// This file owns the binary snapshot format ("MADSNAP3"): the schema in
// declaration order, each atom type with its type number, followed by
// every atom-type and link-type occurrence, and the CRC32 of everything
// before it as the file's last four bytes. internal/codec delegates its
// public Encode/Decode/Save/Load here — the format had to live in the
// storage package once checkpointing reused it, because Checkpoint and
// Recover are Database-level operations and codec sits above storage.
//
// EncodeSnapshot serializes the latest published commit; the checkpoint
// encodes the same sections at its pinned timestamp (it must not observe
// commits that raced past the pin). On the way in, DecodeSnapshot
// installs every occurrence at one synthetic commit timestamp instead of
// one commit per atom: recovery then replays WAL records stamped above
// the checkpoint timestamp on top, and version chains stay monotonic.

// snapMagic identifies snapshot files; the trailing digit is the format
// version. Formats 1 and 2 are refused: "MADSNAP1" carried no type
// numbers, "MADSNAP2" no checksum.
const snapMagic = "MADSNAP3"

// maxSnapStr bounds decoded strings to keep corrupt files from
// allocating unbounded memory.
const maxSnapStr = 1 << 24

type snapWriter struct {
	w *bufio.Writer
	// out and sum are set for a whole durable file (newFileWriter): flush
	// ends the file with the CRC32 of every byte written before it.
	out io.Writer
	sum hash.Hash32
	err error
}

func newSnapWriter(out io.Writer) *snapWriter {
	return &snapWriter{w: bufio.NewWriter(out)}
}

// newFileWriter is newSnapWriter for a whole durable file, a snapshot or
// a checkpoint, that starts with magic; readFile checks the magic and
// what flush appends.
func newFileWriter(out io.Writer, magic string) *snapWriter {
	sum := crc32.NewIEEE()
	w := newSnapWriter(io.MultiWriter(out, sum))
	w.out, w.sum = out, sum
	_, w.err = w.w.WriteString(magic)
	return w
}

func (w *snapWriter) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *snapWriter) uvarint(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

func (w *snapWriter) u64(v uint64) {
	if w.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, w.err = w.w.Write(buf[:])
}

func (w *snapWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

func (w *snapWriter) boolean(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *snapWriter) flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil || w.sum == nil {
		return err
	}
	_, err := w.out.Write(binary.LittleEndian.AppendUint32(nil, w.sum.Sum32()))
	return err
}

type snapReader struct {
	r   *bufio.Reader
	err error
}

func newSnapReader(in io.Reader) *snapReader {
	return &snapReader{r: bufio.NewReader(in)}
}

// readFile reads a whole durable file that newFileWriter wrote, and
// returns a reader over what follows the magic once the file's trailing
// CRC32 matches its bytes. A file in another format is
// refused with an error naming it; refused explains the older formats.
func readFile(in io.Reader, kind, magic, refused string) (*snapReader, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(magic)) {
		return nil, fmt.Errorf("storage: %s format %q, not %s (%s)", kind, data[:min(len(data), len(magic))], magic, refused)
	}
	end := len(data) - 4
	if end < len(magic) || crc32.ChecksumIEEE(data[:end]) != binary.LittleEndian.Uint32(data[end:]) {
		return nil, fmt.Errorf("storage: %s checksum mismatch: the file is corrupt", kind)
	}
	return newSnapReader(bytes.NewReader(data[len(magic):end])), nil
}

func (r *snapReader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	r.err = err
	return b
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	r.err = err
	return v
}

func (r *snapReader) u64() uint64 {
	if r.err != nil {
		return 0
	}
	var buf [8]byte
	_, err := io.ReadFull(r.r, buf[:])
	r.err = err
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *snapReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxSnapStr {
		r.err = fmt.Errorf("storage: string length %d exceeds limit", n)
		return ""
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(r.r, buf)
	r.err = err
	return string(buf)
}

func (r *snapReader) boolean() bool { return r.u8() != 0 }

// atomTypeDef writes an atom type's number and attributes, and
// linkTypeDef a link type's sides and cardinalities: a type definition's
// bytes after its name, the same in a WAL op and in a snapshot.
func (w *snapWriter) atomTypeDef(num model.TypeNum, attrs []model.AttrDesc) {
	w.uvarint(uint64(num))
	w.uvarint(uint64(len(attrs)))
	for _, ad := range attrs {
		w.str(ad.Name)
		w.u8(uint8(ad.Kind))
		w.boolean(ad.NotNull)
	}
}

func (w *snapWriter) linkTypeDef(l model.LinkDesc) {
	w.str(l.SideA)
	w.str(l.SideB)
	w.uvarint(uint64(l.CardA.Min))
	w.uvarint(uint64(l.CardA.Max))
	w.uvarint(uint64(l.CardB.Min))
	w.uvarint(uint64(l.CardB.Max))
}

// atomTypeDef reads what snapWriter.atomTypeDef wrote. It refuses a type
// number of 0 (it would make the zero AtomID valid) or one a TypeNum
// cannot hold. The attribute count comes from the file: the slice grows
// only as attributes are actually read.
func (r *snapReader) atomTypeDef() *walDef {
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

// linkTypeDef reads what snapWriter.linkTypeDef wrote.
func (r *snapReader) linkTypeDef() *walDef {
	d := &walDef{link: model.LinkDesc{SideA: r.str(), SideB: r.str()}}
	d.link.CardA = model.Cardinality{Min: int(r.uvarint()), Max: int(r.uvarint())}
	d.link.CardB = model.Cardinality{Min: int(r.uvarint()), Max: int(r.uvarint())}
	return d
}

// encodeValue writes one attribute value.
func encodeValue(w *snapWriter, v model.Value) {
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

// decodeValue reads one attribute value.
func decodeValue(r *snapReader) (model.Value, error) {
	kind := model.Kind(r.u8())
	switch kind {
	case model.KNull:
		return model.Null(), r.err
	case model.KBool:
		return model.Bool(r.boolean()), r.err
	case model.KInt:
		return model.Int(int64(r.u64())), r.err
	case model.KFloat:
		return model.Float(math.Float64frombits(r.u64())), r.err
	case model.KString:
		return model.Str(r.str()), r.err
	case model.KID:
		return model.ID(model.AtomID(r.u64())), r.err
	}
	return model.Null(), fmt.Errorf("storage: unknown value kind %d", kind)
}

// EncodeSnapshot writes a MADSNAP3 snapshot of the database as of the
// latest published commit.
func EncodeSnapshot(db *Database, out io.Writer) error {
	w := newFileWriter(out, snapMagic)
	schema := db.Schema()
	encodeSnapshotSections(w, db, db.latestTS.Load(), schema.AtomTypes(), schema.LinkTypes())
	return w.flush()
}

// encodeSnapshotSections writes the snapshot body against explicitly
// captured type lists — the checkpoint embeds it between its own
// sections. Checkpoint captures the lists under the commit mutex at pin
// time: a type defined after the pin must stay out of the snapshot so
// replaying its (higher-stamped) DDL record does not collide.
func encodeSnapshotSections(w *snapWriter, db *Database, ts uint64, atomTypes []*catalog.AtomType, linkTypes []*catalog.LinkType) {
	w.uvarint(uint64(len(atomTypes)))
	for _, at := range atomTypes {
		w.str(at.Name)
		w.atomTypeDef(at.Num, at.Desc.Attrs())
	}
	w.uvarint(uint64(len(linkTypes)))
	for _, lt := range linkTypes {
		w.str(lt.Name)
		w.linkTypeDef(lt.Desc)
	}
	for _, at := range atomTypes {
		c, ok := db.Container(at.Name)
		if !ok {
			if w.err == nil {
				w.err = fmt.Errorf("storage: no container for %q", at.Name)
			}
			return
		}
		atoms := c.atoms(ts)
		w.uvarint(uint64(len(atoms)))
		for _, a := range atoms {
			w.u64(uint64(a.ID))
			for _, v := range a.Vals {
				encodeValue(w, v)
			}
			if w.err != nil {
				return
			}
		}
	}
	for _, lt := range linkTypes {
		ls, ok := db.LinkStore(lt.Name)
		if !ok {
			if w.err == nil {
				w.err = fmt.Errorf("storage: no store for %q", lt.Name)
			}
			return
		}
		links := ls.links(ts)
		w.uvarint(uint64(len(links)))
		for _, l := range links {
			w.u64(uint64(l.A))
			w.u64(uint64(l.B))
			if w.err != nil {
				return
			}
		}
	}
}

// DecodeSnapshot reconstructs a database from a MADSNAP3 snapshot. Every
// occurrence is installed at one synthetic commit; the returned
// database's clock publishes it.
func DecodeSnapshot(in io.Reader) (*Database, error) {
	r, err := readFile(in, "snapshot", snapMagic, "MADSNAP1 carried no type numbers, MADSNAP2 no checksum")
	if err != nil {
		return nil, err
	}
	db := NewDatabase()
	const loadTS = 2
	if err := decodeSnapshotInto(r, db, loadTS); err != nil {
		return nil, err
	}
	db.latestTS.Store(loadTS)
	db.lastAlloc = loadTS
	return db, nil
}

// decodeSnapshotInto reads the snapshot body, installing every
// occurrence into db at commit timestamp applyTS. db must be empty; the
// caller owns clock bookkeeping.
func decodeSnapshotInto(r *snapReader, db *Database, applyTS uint64) error {
	// Counts come from the file: slices grow only as entries are actually
	// read, never to a capacity a corrupt count names.
	numAtomTypes := r.uvarint()
	var containers []*Container
	for i := uint64(0); i < numAtomTypes && r.err == nil; i++ {
		op := walOp{kind: walOpAtomType, name: r.str(), def: r.atomTypeDef()}
		if r.err != nil {
			return r.err
		}
		if _, err := db.defineType(&op); err != nil {
			return err
		}
		c, _ := db.Container(op.name)
		containers = append(containers, c)
	}

	numLinkTypes := r.uvarint()
	var linkNames []string
	for i := uint64(0); i < numLinkTypes && r.err == nil; i++ {
		op := walOp{kind: walOpLinkType, name: r.str(), def: r.linkTypeDef()}
		if r.err != nil {
			return r.err
		}
		if _, err := db.defineType(&op); err != nil {
			return err
		}
		linkNames = append(linkNames, op.name)
	}

	view := db.View(applyTS)
	for _, c := range containers {
		n := r.uvarint()
		for i := uint64(0); i < n && r.err == nil; i++ {
			id := model.AtomID(r.u64())
			vals := make([]model.Value, c.Desc().Len())
			for j := range vals {
				v, err := decodeValue(r)
				if err != nil {
					return err
				}
				vals[j] = v
			}
			stored, err := c.validate(id, vals)
			if err != nil {
				return err
			}
			if _, _, _, err := c.put(stored, applyTS, putNew); err != nil {
				return err
			}
		}
	}
	for _, name := range linkNames {
		ls, _ := db.LinkStore(name)
		ca, okA := db.Container(ls.desc.SideA)
		cb, okB := db.Container(ls.desc.SideB)
		n := r.uvarint()
		for i := uint64(0); i < n && r.err == nil; i++ {
			a := model.AtomID(r.u64())
			b := model.AtomID(r.u64())
			if r.err != nil {
				break
			}
			if !okA || !view.Has(ca, a) {
				return fmt.Errorf("storage: link %q: atom %v not in %q", name, a, ls.desc.SideA)
			}
			if !okB || !view.Has(cb, b) {
				return fmt.Errorf("storage: link %q: atom %v not in %q", name, b, ls.desc.SideB)
			}
			if _, err := ls.connect(a, b, applyTS); err != nil {
				return err
			}
		}
	}
	return r.err
}
