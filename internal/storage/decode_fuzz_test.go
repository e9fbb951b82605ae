package storage

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"mad/internal/model"
)

// sealSnapshot frames a snapshot body as a file: the magic before it,
// a valid checksum after it — so decoding reaches the body.
func sealSnapshot(body []byte) []byte {
	var b bytes.Buffer
	w := newFileWriter(&b, snapMagic)
	w.w.Write(body)
	w.flush()
	return b.Bytes()
}

// TestHostileDecodeCounts: a count read from a snapshot or a WAL payload
// can name far more entries than the bytes behind it hold. Decoding such
// input returns an error; it neither panics sizing a slice to the count
// nor loops appending past the end of the input. An atom-type number of
// 0, above 65 535 or given twice is an error too, never renumbered. The
// snapshots carry a valid checksum, so each is refused by the body
// decoder, not by the checksum.
func TestHostileDecodeCounts(t *testing.T) {
	const huge = 1 << 62
	frame := func(fields func(w *snapWriter)) []byte {
		var b bytes.Buffer
		w := newSnapWriter(&b)
		fields(w)
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	snapshot := func(fields func(w *snapWriter)) func() error {
		data := sealSnapshot(frame(fields))
		return func() error { _, err := DecodeSnapshot(bytes.NewReader(data)); return err }
	}
	wal := func(kind uint8, fields func(w *snapWriter)) func() error {
		data := frame(func(w *snapWriter) { w.u64(3); w.uvarint(1); w.u8(kind); w.str("t"); fields(w) })
		return func() error { _, _, err := decodeWALPayload(data); return err }
	}
	// snapTypes and walTypes declare attribute-less atom types under the
	// given numbers, in a snapshot with no links or atoms and in one WAL
	// record.
	snapTypes := func(nums ...uint64) func() error {
		return snapshot(func(w *snapWriter) {
			w.uvarint(uint64(len(nums)))
			for i, n := range nums {
				w.str(fmt.Sprint("t", i))
				w.uvarint(n)
				w.uvarint(0)
			}
			w.uvarint(0)
			for range nums {
				w.uvarint(0)
			}
		})
	}
	walTypes := func(nums ...uint64) func() error {
		data := frame(func(w *snapWriter) {
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
	cases := []struct {
		name   string
		decode func() error
	}{
		{"snapshot atom-type count", snapshot(func(w *snapWriter) { w.uvarint(huge) })},
		{"snapshot attribute count", snapshot(func(w *snapWriter) { w.uvarint(1); w.str("t"); w.uvarint(1); w.uvarint(huge) })},
		{"snapshot link-type count", snapshot(func(w *snapWriter) { w.uvarint(0); w.uvarint(huge) })},
		{"wal put value count", wal(walOpPut, func(w *snapWriter) { w.u64(uint64(model.MakeAtomID(1, 1))); w.uvarint(huge) })},
		{"wal atom-type attribute count", wal(walOpAtomType, func(w *snapWriter) { w.uvarint(1); w.uvarint(huge) })},
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

// FuzzDecodeSnapshot: no snapshot body panics DecodeSnapshot, and a
// database it accepts encodes to a snapshot that decodes and encodes to
// the same bytes. The fuzzer mutates the body; every input is sealed
// with the magic and a valid checksum so the body decoder sees it.
func FuzzDecodeSnapshot(f *testing.F) {
	encode := func(tb testing.TB, db *Database) []byte {
		var b bytes.Buffer
		if err := EncodeSnapshot(db, &b); err != nil {
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
	if err != nil {
		f.Fatal(err)
	}
	seed := encode(f, db)
	f.Add(seed[len(snapMagic) : len(seed)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		db, err := DecodeSnapshot(bytes.NewReader(sealSnapshot(body)))
		if err != nil {
			return
		}
		once := encode(t, db)
		db2, err := DecodeSnapshot(bytes.NewReader(once))
		if err != nil || !bytes.Equal(encode(t, db2), once) {
			t.Fatalf("snapshot round trip failed (decode error %v)", err)
		}
	})
}
