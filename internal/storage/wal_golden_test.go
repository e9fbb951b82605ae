package storage

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mad/internal/model"
)

// TestWALRecordGolden pins the on-disk frame of a commit record: one op of
// every kind, encoded, must equal the bytes captured before the write path
// was refactored — a directory written by an older build keeps recovering.
func TestWALRecordGolden(t *testing.T) {
	ops := []*walOp{
		{kind: walOpAtomType, name: "part", def: &walDef{num: 1, attrs: []model.AttrDesc{
			{Name: "pn", Kind: model.KInt, NotNull: true}, {Name: "label", Kind: model.KString}}}},
		{kind: walOpLinkType, name: "comp", def: &walDef{link: model.LinkDesc{SideA: "part", SideB: "part",
			CardA: model.Cardinality{Min: 0, Max: 4}, CardB: model.Cardinality{Min: 1, Max: 0}}}},
		{kind: walOpCreateIndex, name: "part", def: &walDef{attr: "pn"}},
		{kind: walOpPut, name: "part", atom: model.NewAtom(model.MakeAtomID(1, 7),
			model.Int(-42), model.Str("bolt ⌀6"))},
		{kind: walOpPut, name: "part", atom: model.NewAtom(model.MakeAtomID(1, 8),
			model.Int(9), model.Null())},
		{kind: walOpConnect, name: "comp", a: model.MakeAtomID(1, 7), b: model.MakeAtomID(1, 8)},
		{kind: walOpDisconnect, name: "comp", a: model.MakeAtomID(1, 7), b: model.MakeAtomID(1, 8)},
		{kind: walOpDelete, name: "part", a: model.MakeAtomID(1, 8)},
		{kind: walOpDropIndex, name: "part", def: &walDef{attr: "pn"}},
	}
	rec, err := encodeWALRecord(1<<40+3, ops)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/walrecord.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(rec); got != strings.TrimSpace(string(want)) {
		t.Fatalf("WAL record bytes changed:\n got %s\nwant %s", got, want)
	}
	if _, back, err := decodeWALPayload(rec[walRecHeader:]); err != nil || len(back) != len(ops) {
		t.Fatalf("golden record does not decode: %d ops, %v", len(back), err)
	}
}

// TestWALRecordBound: a commit whose record would exceed maxWALRecord —
// which replay would take for a torn tail, dropping it and every later
// commit — is refused before anything is published, failing only itself:
// nothing visible, the log healthy. A record exactly at the bound commits
// and recovers. The bound is lowered so no gigabyte is allocated.
func TestWALRecordBound(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineAtomType("t", model.MustDesc(model.AttrDesc{Name: "s", Kind: model.KString})); err != nil {
		t.Fatal(err)
	}
	val := model.Str(strings.Repeat("x", 100))
	insert := func() (*Txn, model.AtomID) {
		txn := db.Begin()
		id, err := txn.InsertAtom("t", val)
		if err != nil {
			t.Fatal(err)
		}
		return txn, id
	}
	txn, refused := insert()
	rec, err := encodeWALRecord(db.LatestTS()+1, txn.wops)
	if err != nil {
		t.Fatal(err)
	}
	defer func(limit int) { maxWALRecord = limit }(maxWALRecord)
	maxWALRecord = len(rec) - walRecHeader - 1
	ts := db.LatestTS()
	if err := txn.Commit(); err == nil {
		t.Fatal("a record one byte over the bound committed")
	}
	if _, err := db.InsertAtom("t", val); err == nil {
		t.Fatal("an auto-commit one byte over the bound committed")
	}
	if db.LatestTS() != ts || db.HasAtom("t", refused) || db.wal.healthy() != nil {
		t.Fatalf("refused commits published (ts %d → %d) or tripped the log (%v)", ts, db.LatestTS(), db.wal.healthy())
	}
	maxWALRecord++ // exactly the payload size
	txn, kept := insert()
	if err := txn.Commit(); err != nil {
		t.Fatalf("a record at the bound: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.HasAtom("t", kept) || rec2.HasAtom("t", refused) {
		t.Fatal("recovery lost the record at the bound or resurrected the refused one")
	}
}

// TestFormat1Refused: a log record of format 1, whose atom types carry no
// type number, is refused with an error naming the format: it is never
// renumbered, and the log is not cut off as a torn tail. A snapshot or
// checkpoint file of an older format is refused by name too.
func TestFormat1Refused(t *testing.T) {
	// The golden record of format 1: the same ops as TestWALRecordGolden's,
	// the atom type under op kind 5 and without its number.
	rec, err := hex.DecodeString(
		"b90000000390123b0300000000010000090504706172740202706e0201056c61" +
			"62656c04000604636f6d70047061727404706172740004010007047061727402" +
			"706e01047061727407000000000001000202d6ffffffffffffff0409626f6c74" +
			"20e28c8036010470617274080000000000010002020900000000000000000304" +
			"636f6d70070000000000010008000000000001000404636f6d70070000000000" +
			"0100080000000000010002047061727408000000000001000804706172740270" +
			"6e")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seg := filepath.Join(dir, walSegName(1))
	if err := os.WriteFile(seg, rec, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "MADSNAP1") {
		t.Fatalf("opening a format-1 log: %v", err)
	}
	if data, err := os.ReadFile(seg); err != nil || !bytes.Equal(data, rec) {
		t.Fatalf("the format-1 log changed (%v)", err)
	}
	// The snapshot and checkpoint formats before the state file are
	// refused by name, whether loaded or recovered.
	for _, magic := range []string{"MADSNAP1", "MADSNAP2", "MADSNAP3", "MADCKPT1", "MADCKPT2"} {
		old := filepath.Join(t.TempDir(), ckptFile)
		if err := os.WriteFile(old, []byte(magic+"\x00\x00\x00\x00\x00\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(old); err == nil || !strings.Contains(err.Error(), magic) {
			t.Fatalf("loading a %s file: %v", magic, err)
		}
		if _, err := Recover(filepath.Dir(old)); err == nil || !strings.Contains(err.Error(), magic) {
			t.Fatalf("recovering beside a %s checkpoint: %v", magic, err)
		}
	}
}
