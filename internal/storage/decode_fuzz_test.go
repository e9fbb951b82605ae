package storage

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mad/internal/model"
	"mad/internal/storage/stats"
)

// sealState frames a state file's body — its timestamp and records — as
// a file: the magic before it, a valid checksum after it, so loading
// reaches the body.
func sealState(body []byte) []byte {
	var b bytes.Buffer
	w := newFileWriter(&b)
	w.w.Write(body)
	w.flush()
	return b.Bytes()
}

// TestHostileDecodeCounts: a count read from a state file or a WAL
// payload can name far more entries than the bytes behind it hold.
// Decoding such input returns an error; it neither panics sizing a slice
// to the count nor loops appending past the end of the input, and a
// histogram's bucket count allocates nothing it did not read. An
// atom-type number of 0, above 65 535 or given twice — in one record or
// in two — is an error too, never renumbered. The state files (the
// "snapshot" cases: what Save writes) carry a valid checksum and valid
// frames, so each is refused by the payload decoder or by replay, not by
// a checksum.
func TestHostileDecodeCounts(t *testing.T) {
	const huge = 1 << 62
	frame := func(fields func(w *encoder)) []byte {
		var b bytes.Buffer
		w := newEncoder(&b)
		fields(w)
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	// snapshot seals a state file of one record per entry of records, each
	// an op count and the ops' bytes.
	type record struct {
		n   uint64
		ops func(w *encoder)
	}
	snapshot := func(records ...record) func() error {
		body := binary.LittleEndian.AppendUint64(nil, 2)
		for _, r := range records {
			rec, err := frameRecord(nil, 2, int(r.n), frame(r.ops))
			if err != nil {
				t.Fatal(err)
			}
			body = append(body, rec...)
		}
		data := sealState(body)
		return func() error { _, _, err := loadState(bytes.NewReader(data)); return err }
	}
	wal := func(kind uint8, fields func(w *encoder)) func() error {
		data := frame(func(w *encoder) { w.u64(3); w.uvarint(1); w.u8(kind); w.str("t"); fields(w) })
		return func() error { _, _, err := decodeWALPayload(data); return err }
	}
	// atomType writes an atom-type op declaring t<i> under number num
	// with one integer attribute v.
	atomType := func(i int, num uint64) func(w *encoder) {
		return func(w *encoder) {
			w.u8(walOpAtomType)
			w.str(fmt.Sprint("t", i))
			w.atomTypeDef(model.TypeNum(num), []model.AttrDesc{{Name: "v", Kind: model.KInt}})
		}
	}
	linkType := func(w *encoder) {
		w.u8(walOpLinkType)
		w.str("l")
		w.linkTypeDef(model.LinkDesc{SideA: "t0", SideB: "t0"})
	}
	// snapTypes and walTypes declare atom types under the given numbers,
	// in a state file (one record each) and in one WAL record.
	snapTypes := func(nums ...uint64) func() error {
		var records []record
		for i, n := range nums {
			records = append(records, record{1, atomType(i, n)})
		}
		return snapshot(records...)
	}
	walTypes := func(nums ...uint64) func() error {
		data := frame(func(w *encoder) {
			w.u64(3)
			w.uvarint(uint64(len(nums)))
			for i, n := range nums {
				w.u8(walOpAtomType)
				w.str(fmt.Sprint("t", i))
				w.uvarint(n)
				w.uvarint(0)
			}
		})
		return func() error { _, _, err := decodeWALPayload(data); return err }
	}
	// 1<<24 buckets of 56 bytes each: sized up front, 896 MB.
	histogram := snapshot(record{1, atomType(0, 1)}, record{1, func(w *encoder) {
		w.u8(walOpHistogram)
		w.str("t0")
		w.str("v")
		w.value(model.Int(0))
		w.uvarint(1 << 24)
	}})
	cases := []struct {
		name   string
		decode func() error
	}{
		{"snapshot atom-type count", snapshot(record{huge, atomType(0, 1)})},
		{"snapshot attribute count", snapshot(record{1, func(w *encoder) { w.u8(walOpAtomType); w.str("t"); w.uvarint(1); w.uvarint(huge) }})},
		{"snapshot link-type count", snapshot(record{1, atomType(0, 1)}, record{huge, linkType})},
		{"histogram bucket count", histogram},
		{"wal put value count", wal(walOpPut, func(w *encoder) { w.u64(uint64(model.MakeAtomID(1, 1))); w.uvarint(huge) })},
		{"wal atom-type attribute count", wal(walOpAtomType, func(w *encoder) { w.uvarint(1); w.uvarint(huge) })},
		{"snapshot type number 0", snapTypes(0)},
		{"snapshot type number above 65535", snapTypes(1 << 16)},
		{"snapshot duplicate type number", snapTypes(7, 7)},
		{"wal type number 0", walTypes(0)},
		{"wal type number above 65535", walTypes(1 << 16)},
		{"wal duplicate type number", walTypes(7, 7)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.decode(); err == nil || strings.Contains(err.Error(), "checksum") {
				t.Fatalf("decoding hostile input must fail in the body decoder, got %v", err)
			}
		})
	}
	t.Run("histogram bucket count allocates", func(t *testing.T) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		histogram()
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Fatalf("loading a histogram of a hostile bucket count allocated %d bytes", n)
		}
	})
}

// TestStateFileChecks: a state file replays through the checks a commit
// makes. An atom put twice, a link to an atom the file does not hold, an
// index or a histogram on a type or attribute it does not define — each
// is refused. A histogram names its type and attribute, and its position
// comes from the type's description, never from the file.
func TestStateFileChecks(t *testing.T) {
	id := model.MakeAtomID(1, 1)
	base := []walOp{
		{kind: walOpAtomType, name: "part", def: &walDef{num: 1, attrs: []model.AttrDesc{{Name: "qty", Kind: model.KInt}}}},
		{kind: walOpLinkType, name: "comp", def: &walDef{link: model.LinkDesc{SideA: "part", SideB: "part"}}},
		{kind: walOpPut, name: "part", atom: model.NewAtom(id, model.Int(5))},
	}
	hist := func(typeName, attr string) walOp {
		st := stats.Build([]model.Value{model.Int(5)}, 4).State()
		return walOp{kind: walOpHistogram, name: typeName, def: &walDef{attr: attr, hist: &st}}
	}
	for _, c := range []struct {
		name string
		ops  []walOp
		ok   bool
	}{
		{"valid", []walOp{hist("part", "qty"), {kind: walOpConnect, name: "comp", a: id, b: id}}, true},
		{"histogram of a missing type", []walOp{hist("bolt", "qty")}, false},
		{"histogram of a missing attribute", []walOp{hist("part", "weight")}, false},
		{"index on a missing attribute", []walOp{{kind: walOpCreateIndex, name: "part", def: &walDef{attr: "weight"}}}, false},
		{"atom put twice", []walOp{base[2]}, false},
		{"link to a missing atom", []walOp{{kind: walOpConnect, name: "comp", a: id, b: model.MakeAtomID(1, 2)}}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var b bytes.Buffer
			w := newStateWriter(&b, 2)
			for _, op := range append(slices.Clone(base), c.ops...) {
				w.op(&op)
			}
			if err := w.close(); err != nil {
				t.Fatal(err)
			}
			db, _, err := loadState(&b)
			if !c.ok {
				if err == nil {
					t.Fatal("the state file loaded")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if h, ok := db.Histogram("part", "qty"); !ok || h.State().Total != 1 {
				t.Fatalf("histogram after loading: %v", ok)
			}
		})
	}
}

// FuzzDecodeWALPayload: no payload panics the decoder, and the ops it
// accepts, encoded by encodeWALRecord, decode back to the same ops —
// byte for byte once encoded again.
func FuzzDecodeWALPayload(f *testing.F) {
	golden, err := os.ReadFile("testdata/walrecord.golden")
	if err != nil {
		f.Fatal(err)
	}
	rec, err := hex.DecodeString(strings.TrimSpace(string(golden)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec[walRecHeader:])
	encode := func(t *testing.T, ts uint64, ops []walOp) []byte {
		ptrs := make([]*walOp, len(ops))
		for i := range ops {
			ptrs[i] = &ops[i]
		}
		rec, err := encodeWALRecord(ts, ptrs)
		if err != nil {
			t.Fatalf("decoded ops do not encode: %v", err)
		}
		return rec
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		ts, ops, err := decodeWALPayload(payload)
		if err != nil {
			return
		}
		rec := encode(t, ts, ops)
		ts2, ops2, err := decodeWALPayload(rec[walRecHeader:])
		if err != nil {
			t.Fatalf("an encoded record does not decode: %v", err)
		}
		if rec2 := encode(t, ts2, ops2); !bytes.Equal(rec, rec2) {
			t.Fatalf("round trip changed the ops:\n%x\n%x", rec, rec2)
		}
	})
}

// FuzzDecodeSnapshot: no state file body panics loadState, and a
// database it accepts writes a state file that loads and writes to the
// same bytes — load, write, load, write. Checkpoints and Save files are
// one format, so this one target covers both. The fuzzer mutates the
// body (the timestamp and the records); every input is sealed with the
// magic and a valid checksum so the records reach the decoder.
func FuzzDecodeSnapshot(f *testing.F) {
	encode := func(tb testing.TB, db *Database) []byte {
		var b bytes.Buffer
		if err := db.encodeState(&b); err != nil {
			tb.Fatalf("a database does not encode: %v", err)
		}
		return b.Bytes()
	}
	db := NewDatabase()
	_, err := db.DefineAtomType("part", model.MustDesc(model.AttrDesc{Name: "name", Kind: model.KString, NotNull: true},
		model.AttrDesc{Name: "qty", Kind: model.KInt}, model.AttrDesc{Name: "weight", Kind: model.KFloat},
		model.AttrDesc{Name: "ok", Kind: model.KBool}, model.AttrDesc{Name: "ref", Kind: model.KID}))
	if err == nil {
		_, err = db.DefineLinkType("comp", model.LinkDesc{SideA: "part", SideB: "part"})
	}
	a, b := model.AtomID(0), model.AtomID(0)
	if err == nil {
		a, err = db.InsertAtom("part", model.Str("bolt"), model.Int(-4), model.Float(0.5), model.Bool(true), model.Null())
	}
	if err == nil {
		b, err = db.InsertAtom("part", model.Str("nut"), model.Null(), model.Null(), model.Bool(false), model.ID(a))
	}
	if err == nil {
		err = db.Connect("comp", a, b)
	}
	if err == nil {
		err = db.CreateIndex("part", "qty")
	}
	if err == nil {
		_, err = db.Analyze("part")
	}
	if err != nil {
		f.Fatal(err)
	}
	seed := encode(f, db)
	f.Add(seed[len(stateMagic) : len(seed)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		db, _, err := loadState(bytes.NewReader(sealState(body)))
		if err != nil {
			return
		}
		once := encode(t, db)
		db2, _, err := loadState(bytes.NewReader(once))
		if err != nil || !bytes.Equal(encode(t, db2), once) {
			t.Fatalf("state file round trip failed (load error %v)", err)
		}
	})
}
