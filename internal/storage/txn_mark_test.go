package storage_test

import (
	"testing"

	"mad/internal/model"
	"mad/internal/storage"
)

// TestTxnRollbackToMark: RollbackTo discards the writes buffered after
// the mark — an insert into a type defined before it, a type defined
// after it and that type's atoms — and frees the later type's name, while
// the transaction stays open and commits what came before the mark.
func TestTxnRollbackToMark(t *testing.T) {
	db := storage.NewDatabase()
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	txn := db.Begin()
	if err := txn.DefineAtomType("kept", desc); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.InsertAtom("kept", model.Int(1)); err != nil {
		t.Fatal(err)
	}
	mark := txn.Mark()
	if _, err := txn.InsertAtom("kept", model.Int(2)); err != nil {
		t.Fatal(err)
	}
	if err := txn.DefineAtomType("gone", desc); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.InsertAtom("gone", model.Int(3)); err != nil {
		t.Fatal(err)
	}
	c, _ := db.Container("kept")
	if n := len(txn.View().IDs(c)); n != 2 {
		t.Fatalf("before the undo the transaction sees %d kept atoms, want 2", n)
	}
	if err := txn.RollbackTo(mark); err != nil {
		t.Fatal(err)
	}
	if n := len(txn.View().IDs(c)); n != 1 {
		t.Fatalf("after the undo the transaction sees %d kept atoms, want 1", n)
	}
	if _, ok := db.Container("gone"); ok {
		t.Fatal("the type defined after the mark survived the undo")
	}
	if err := txn.RollbackTo(txn.Mutations() + 1); err == nil {
		t.Fatal("a mark past the buffered writes was accepted")
	}
	if err := txn.DefineAtomType("gone", desc); err != nil {
		t.Fatalf("the undone type's name stayed reserved: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountAtoms("kept"); n != 1 {
		t.Fatalf("kept holds %d atoms after commit, want 1", n)
	}
	if n, err := db.CountAtoms("gone"); err != nil || n != 0 {
		t.Fatalf("the redefined type holds %d atoms (%v), want an empty type", n, err)
	}
}
