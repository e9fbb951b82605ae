package storage

import (
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"mad/internal/model"
)

// TestWALRecordGolden pins the on-disk frame of a commit record: one op of
// every kind, encoded, must equal the bytes captured before the write path
// was refactored — a directory written by an older build keeps recovering.
func TestWALRecordGolden(t *testing.T) {
	ops := []walOp{
		{kind: walOpAtomType, name: "part", attrs: []model.AttrDesc{
			{Name: "pn", Kind: model.KInt, NotNull: true}, {Name: "label", Kind: model.KString}}},
		{kind: walOpLinkType, name: "comp", link: model.LinkDesc{SideA: "part", SideB: "part",
			CardA: model.Cardinality{Min: 0, Max: 4}, CardB: model.Cardinality{Min: 1, Max: 0}}},
		{kind: walOpCreateIndex, name: "part", attr: "pn"},
		{kind: walOpPut, name: "part", atom: model.NewAtom(model.MakeAtomID(1, 7),
			model.Int(-42), model.Str("bolt ⌀6"))},
		{kind: walOpPut, name: "part", atom: model.NewAtom(model.MakeAtomID(1, 8),
			model.Int(9), model.Null())},
		{kind: walOpConnect, name: "comp", a: model.MakeAtomID(1, 7), b: model.MakeAtomID(1, 8)},
		{kind: walOpDisconnect, name: "comp", a: model.MakeAtomID(1, 7), b: model.MakeAtomID(1, 8)},
		{kind: walOpDelete, name: "part", id: model.MakeAtomID(1, 8)},
		{kind: walOpDropIndex, name: "part", attr: "pn"},
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
