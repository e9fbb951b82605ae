package storage_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mad/internal/model"
	"mad/internal/storage"
)

// txnDB builds a small database with a reflexive link type.
func txnDB(t testing.TB) *storage.Database {
	t.Helper()
	return txnSchema(t, storage.NewDatabase())
}

// txnSchema declares txnDB's schema on db.
func txnSchema(t testing.TB, db *storage.Database) *storage.Database {
	t.Helper()
	if _, err := db.DefineAtomType("n", model.MustDesc(
		model.AttrDesc{Name: "v", Kind: model.KInt},
	)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("e", model.LinkDesc{SideA: "n", SideB: "n"}); err != nil {
		t.Fatal(err)
	}
	return db
}

// snapshot produces a canonical fingerprint of the database's *logical*
// state: per atom type the sorted set of (id, values), per link type the
// sorted set of links. Buffered transactions never leak partial state, so
// the fingerprint before Begin and after Rollback must match exactly.
// (Saving it first additionally confirms the state is serializable.)
func snapshot(t testing.TB, db *storage.Database) []byte {
	t.Helper()
	if err := storage.Save(db, filepath.Join(t.TempDir(), "probe.mad")); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, at := range db.Schema().AtomTypes() {
		c, _ := db.Container(at.Name)
		c.Scan(func(a model.Atom) bool {
			lines = append(lines, "a|"+at.Name+"|"+a.String())
			return true
		})
	}
	for _, lt := range db.Schema().LinkTypes() {
		ls, _ := db.LinkStore(lt.Name)
		ls.Scan(func(l model.Link) bool {
			lines = append(lines, "l|"+lt.Name+"|"+l.Canonical(lt.Desc.Reflexive()).String())
			return true
		})
	}
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n"))
}

func TestTxnCommitKeepsMutations(t *testing.T) {
	db := txnDB(t)
	txn := db.Begin()
	a, err := txn.InsertAtom("n", model.Int(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := txn.InsertAtom("n", model.Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Connect("e", a, b); err != nil {
		t.Fatal(err)
	}
	if txn.Mutations() != 3 {
		t.Fatalf("mutations = %d", txn.Mutations())
	}
	// Buffered writes are invisible until Commit publishes them.
	if db.TotalAtoms() != 0 || db.TotalLinks() != 0 {
		t.Fatal("buffered writes leaked before commit")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.TotalAtoms() != 2 || db.TotalLinks() != 1 {
		t.Fatal("commit lost mutations")
	}
	if err := txn.Rollback(); err == nil {
		t.Fatal("rollback after commit must fail")
	}
}

func TestTxnRollbackRestoresExactState(t *testing.T) {
	db := txnDB(t)
	// Pre-transaction state: two linked atoms.
	a, _ := db.InsertAtom("n", model.Int(1))
	b, _ := db.InsertAtom("n", model.Int(2))
	if err := db.Connect("e", a, b); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, db)

	txn := db.Begin()
	c, err := txn.InsertAtom("n", model.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Connect("e", b, c); err != nil {
		t.Fatal(err)
	}
	if err := txn.UpdateAtom("n", a, []model.Value{model.Int(99)}); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Disconnect("e", a, b); err != nil {
		t.Fatal(err)
	}
	if err := txn.DeleteAtom("n", b); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	after := snapshot(t, db)
	if !bytes.Equal(before, after) {
		t.Fatal("rollback did not restore the exact pre-transaction state")
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnDeleteCascadeBuffersUntilCommit(t *testing.T) {
	db := txnDB(t)
	hub, _ := db.InsertAtom("n", model.Int(0))
	var spokes []model.AtomID
	for i := 0; i < 5; i++ {
		s, _ := db.InsertAtom("n", model.Int(int64(i+1)))
		spokes = append(spokes, s)
		if err := db.Connect("e", hub, s); err != nil {
			t.Fatal(err)
		}
	}
	// A spoke-to-spoke link that must survive the cascade.
	if err := db.Connect("e", spokes[0], spokes[1]); err != nil {
		t.Fatal(err)
	}
	before := snapshot(t, db)
	txn := db.Begin()
	if err := txn.DeleteAtom("n", hub); err != nil {
		t.Fatal(err)
	}
	// The cascade is buffered: every link is still visible.
	if db.TotalLinks() != 6 {
		t.Fatalf("buffered cascade leaked: %d links visible", db.TotalLinks())
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, snapshot(t, db)) {
		t.Fatal("rollback changed state")
	}
	// Committing the same delete drops the atom and every incident link
	// atomically.
	txn = db.Begin()
	if err := txn.DeleteAtom("n", hub); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if db.TotalLinks() != 1 {
		t.Fatalf("cascade wrong: %d links left, want the spoke-to-spoke one", db.TotalLinks())
	}
	if db.TotalAtoms() != 5 {
		t.Fatalf("atoms = %d", db.TotalAtoms())
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestTxnIdempotentConnectRollback(t *testing.T) {
	db := txnDB(t)
	a, _ := db.InsertAtom("n", model.Int(1))
	b, _ := db.InsertAtom("n", model.Int(2))
	if err := db.Connect("e", a, b); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin()
	// Connecting an existing link is a no-op; rollback must NOT remove it.
	if err := txn.Connect("e", a, b); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.CountLinks("e"); n != 1 {
		t.Fatal("rollback removed a pre-existing link")
	}
}

func TestTxnUseAfterFinish(t *testing.T) {
	db := txnDB(t)
	txn := db.Begin()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.InsertAtom("n", model.Int(1)); err == nil {
		t.Fatal("insert after commit must fail")
	}
	if err := txn.Connect("e", 1, 2); err == nil {
		t.Fatal("connect after commit must fail")
	}
	if err := txn.Rollback(); err == nil {
		t.Fatal("rollback after commit must fail")
	}
	txn = db.Begin()
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err == nil {
		t.Fatal("double rollback must fail")
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("commit after rollback must fail")
	}
}

// TestTxnAbandonedMidBatchLeavesNothing models an owner goroutine that
// errors partway through a batch and simply abandons the transaction:
// zero versions may ever become visible, even without a Rollback call.
func TestTxnAbandonedMidBatchLeavesNothing(t *testing.T) {
	db := txnDB(t)
	keep, _ := db.InsertAtom("n", model.Int(7))
	before := snapshot(t, db)
	versions := db.VersionCount()

	txn := db.Begin()
	if _, err := txn.InsertAtom("n", model.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := txn.UpdateAtom("n", keep, []model.Value{model.Int(8)}); err != nil {
		t.Fatal(err)
	}
	// The batch errors here: wrong arity must be rejected at buffer time…
	if err := txn.UpdateAtom("n", keep, []model.Value{model.Int(1), model.Int(2)}); err == nil {
		t.Fatal("invalid update must fail at buffer time")
	}
	// …and the owner walks away without Commit or Rollback.
	txn = nil

	if !bytes.Equal(before, snapshot(t, db)) {
		t.Fatal("abandoned transaction leaked state")
	}
	if got := db.VersionCount(); got != versions {
		t.Fatalf("abandoned transaction leaked versions: %d -> %d", versions, got)
	}
}

// TestTxnCommitConflictInstallsNothing drives commit-time failures: the
// transaction connects to, or updates, an atom a concurrent auto-commit
// deletes after Begin. The commit must fail as a unit, leaving zero
// versions visible — an update must not resurrect the deleted atom.
func TestTxnCommitConflictInstallsNothing(t *testing.T) {
	for name, touch := range map[string]func(txn *storage.Txn, a, victim model.AtomID) error{
		"connect": func(txn *storage.Txn, a, victim model.AtomID) error { return txn.Connect("e", a, victim) },
		"update": func(txn *storage.Txn, _, victim model.AtomID) error {
			return txn.UpdateAtom("n", victim, []model.Value{model.Int(9)})
		},
	} {
		db := txnDB(t)
		a, _ := db.InsertAtom("n", model.Int(1))
		victim, _ := db.InsertAtom("n", model.Int(2))

		txn := db.Begin()
		if _, err := txn.InsertAtom("n", model.Int(3)); err != nil {
			t.Fatal(err)
		}
		if err := touch(txn, a, victim); err != nil {
			t.Fatal(err)
		}
		// Concurrent writer removes the atom between Begin and Commit.
		if _, err := db.DeleteAtom("n", victim); err != nil {
			t.Fatal(err)
		}
		before := snapshot(t, db)
		versions := db.VersionCount()
		if err := txn.Commit(); err == nil {
			t.Fatalf("%s: commit touching a deleted atom must fail", name)
		}
		if !bytes.Equal(before, snapshot(t, db)) {
			t.Fatalf("%s: failed commit leaked state", name)
		}
		if got := db.VersionCount(); got != versions {
			t.Fatalf("%s: failed commit leaked versions: %d -> %d", name, versions, got)
		}
		if err := txn.Rollback(); err == nil {
			t.Fatal("rollback after a failed commit must still be a hard error")
		}
		if err := db.CheckIntegrity(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTxnRollbackPropertyRandomOps drives random transactional mutation
// sequences and checks that rollback always restores the byte-exact
// pre-transaction snapshot.
func TestTxnRollbackPropertyRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		db := txnDB(t)
		// Seed state outside the transaction.
		var live []model.AtomID
		for i := 0; i < 8; i++ {
			id, err := db.InsertAtom("n", model.Int(int64(i)))
			if err != nil {
				return false
			}
			live = append(live, id)
		}
		for i := 0; i < 6; i++ {
			a := live[rng.Intn(len(live))]
			b := live[rng.Intn(len(live))]
			if a != b {
				if err := db.Connect("e", a, b); err != nil {
					return false
				}
			}
		}
		before := snapshot(t, db)
		txn := db.Begin()
		inTxn := append([]model.AtomID(nil), live...)
		for op := 0; op < 30; op++ {
			switch r := rng.Intn(10); {
			case r < 3:
				id, err := txn.InsertAtom("n", model.Int(int64(100+op)))
				if err != nil {
					return false
				}
				inTxn = append(inTxn, id)
			case r < 6 && len(inTxn) >= 2:
				a := inTxn[rng.Intn(len(inTxn))]
				b := inTxn[rng.Intn(len(inTxn))]
				if a == b {
					continue
				}
				if err := txn.Connect("e", a, b); err != nil {
					return false
				}
			case r < 7 && len(inTxn) >= 2:
				a := inTxn[rng.Intn(len(inTxn))]
				b := inTxn[rng.Intn(len(inTxn))]
				if _, err := txn.Disconnect("e", a, b); err != nil {
					return false
				}
			case r < 8 && len(inTxn) > 0:
				id := inTxn[rng.Intn(len(inTxn))]
				if err := txn.UpdateAtom("n", id, []model.Value{model.Int(int64(rng.Intn(1000)))}); err != nil {
					return false
				}
			default:
				if len(inTxn) == 0 {
					continue
				}
				i := rng.Intn(len(inTxn))
				if err := txn.DeleteAtom("n", inTxn[i]); err != nil {
					return false
				}
				inTxn = append(inTxn[:i], inTxn[i+1:]...)
			}
		}
		// Buffered writes stay invisible throughout.
		if !bytes.Equal(before, snapshot(t, db)) {
			return false
		}
		if err := txn.Rollback(); err != nil {
			return false
		}
		if db.CheckIntegrity() != nil {
			return false
		}
		return bytes.Equal(before, snapshot(t, db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTxnNumbersTypesItDefines: a transaction numbers an atom type when
// it buffers the definition, so it can mint atoms in it; no other writer
// reaches the type before it commits; a rolled-back definition leaves its
// number a hole, which WAL replay and a checkpoint both keep.
func TestTxnNumbersTypesItDefines(t *testing.T) {
	dir := t.TempDir()
	db, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	if _, err := db.DefineAtomType("a", desc); err != nil {
		t.Fatal(err)
	}
	ghost := db.Begin()
	if err := ghost.DefineAtomType("ghost", desc); err != nil {
		t.Fatal(err)
	}
	if _, err := ghost.InsertAtom("ghost", model.Int(1)); err != nil {
		t.Fatal(err)
	}
	other := db.Begin()
	if _, err := other.InsertAtom("ghost", model.Int(2)); err == nil {
		t.Fatal("another transaction inserted into an uncommitted type")
	}
	other.Rollback()
	if _, err := db.InsertAtom("ghost", model.Int(3)); err == nil {
		t.Fatal("an auto-commit inserted into an uncommitted type")
	}
	if err := ghost.Rollback(); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin()
	if err := txn.DefineAtomType("b", desc); err != nil {
		t.Fatal(err)
	}
	id, err := txn.InsertAtom("b", model.Int(7))
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	check := func(label string, db *storage.Database) {
		t.Helper()
		b, ok := db.Schema().AtomType("b")
		if !ok || b.Num != 3 || id.TypeNum() != 3 || !db.HasAtom("b", id) {
			t.Fatalf("%s: b = %+v, atom %v present %v (want number 3)", label, b, id, db.HasAtom("b", id))
		}
		if _, taken := db.Schema().AtomTypeByNum(2); taken || db.Schema().HasName("ghost") {
			t.Fatalf("%s: the rolled-back type's number 2 is in use", label)
		}
	}
	check("live", db)
	replayed, err := storage.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("replayed", replayed)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := storage.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	check("checkpointed", rec)
	if c, err := rec.DefineAtomType("c", desc); err != nil || c.Num != 4 {
		t.Fatalf("type defined after recovery: %+v, %v (want number 4)", c, err)
	}
}

// TestTypeNumbersRunOut: once all 65 535 type numbers are handed out, the
// next atom type is refused — it neither wraps around to number 0 nor
// takes over number 1 from the first type.
func TestTypeNumbersRunOut(t *testing.T) {
	db := storage.NewDatabase()
	desc := model.MustDesc(model.AttrDesc{Name: "v", Kind: model.KInt})
	for i := 1; i <= math.MaxUint16; i++ {
		if _, err := db.DefineAtomType(fmt.Sprintf("t%d", i), desc); err != nil {
			t.Fatalf("type %d: %v", i, err)
		}
	}
	if at, err := db.DefineAtomType("t65536", desc); err == nil {
		t.Fatalf("the 65 536th atom type was defined, number %d", at.Num)
	}
	if at, ok := db.Schema().AtomTypeByNum(1); !ok || at.Name != "t1" {
		t.Fatalf("number 1 resolves %+v, want t1", at)
	}
	if _, err := db.InsertAtom("t1", model.Int(1)); err != nil {
		t.Fatal(err)
	}
}
