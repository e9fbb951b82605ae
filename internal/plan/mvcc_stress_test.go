package plan_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mad/internal/core"
	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/storage"
)

// mvccWorkload builds the stress schema: root atoms linked to leaf
// atoms, both carrying a version attribute "v" that every transaction
// keeps equal across a molecule — the invariant the readers check.
func mvccWorkload(t *testing.T) (*storage.Database, *core.MoleculeType) {
	t.Helper()
	db := storage.NewDatabase()
	desc := model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString},
		model.AttrDesc{Name: "v", Kind: model.KInt},
	)
	if _, err := db.DefineAtomType("root", desc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineAtomType("leaf", desc); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("rl", model.LinkDesc{SideA: "root", SideB: "leaf"}); err != nil {
		t.Fatal(err)
	}
	mt, err := core.Define(db, "stress_mol", []string{"root", "leaf"},
		[]core.DirectedLink{{Link: "rl", From: "root", To: "leaf"}})
	if err != nil {
		t.Fatal(err)
	}
	return db, mt
}

// insertMolecule buffers one whole molecule (root + nLeaves leaves, all
// at version v) into the transaction.
func insertMolecule(txn *storage.Txn, name string, v int64, nLeaves int) (model.AtomID, []model.AtomID, error) {
	root, err := txn.InsertAtom("root", model.Str(name), model.Int(v))
	if err != nil {
		return 0, nil, err
	}
	leaves := make([]model.AtomID, nLeaves)
	for i := range leaves {
		leaf, err := txn.InsertAtom("leaf", model.Str(fmt.Sprintf("%s_l%d", name, i)), model.Int(v))
		if err != nil {
			return 0, nil, err
		}
		if err := txn.Connect("rl", root, leaf); err != nil {
			return 0, nil, err
		}
		leaves[i] = leaf
	}
	return root, leaves, nil
}

// stressMol is a writer's record of one molecule it owns.
type stressMol struct {
	name   string
	root   model.AtomID
	leaves []model.AtomID
}

// TestMVCCStressWritersVsStreamingReaders is the headline race test of
// the MVCC refactor: 4 writer goroutines commit interleaved atom+link
// mutations (whole-molecule inserts, version bumps, leaf swaps, cascade
// deletes — each transaction keeps every atom of a molecule at one
// version value) while 4 streaming readers run Plan.Stream cursors and
// a background vacuum reclaims dead versions. Each cursor is pinned to
// one commit timestamp, so every molecule it delivers must be whole
// (exactly 2 leaves) and version-uniform when its attributes are read
// back at the cursor's snapshot timestamp — a torn molecule, a
// half-installed commit or a prematurely vacuumed version all fail.
func TestMVCCStressWritersVsStreamingReaders(t *testing.T) {
	const (
		writers      = 4
		readers      = 4
		writerRounds = 40
		readerRounds = 12
		nLeaves      = 2
		seedMols     = 4
	)
	db, mt := mvccWorkload(t)

	// Seed molecules that no writer ever touches: every cursor must see
	// at least these.
	for i := 0; i < seedMols; i++ {
		txn := db.Begin()
		if _, _, err := insertMolecule(txn, fmt.Sprintf("seed%d", i), 0, nLeaves); err != nil {
			t.Fatal(err)
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	stopVacuum := db.StartVacuum(200 * time.Microsecond)
	defer stopVacuum()

	errc := make(chan error, writers+readers)
	var wg sync.WaitGroup

	// Writers: each owns a disjoint set of molecules, so commits never
	// conflict — every transaction must install or the test fails.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			var mine []stressMol
			ver := int64(1)
			for r := 0; r < writerRounds; r++ {
				txn := db.Begin()
				ver++
				switch {
				case len(mine) == 0 || rng.Intn(4) == 0:
					name := fmt.Sprintf("w%d_m%d", w, r)
					root, leaves, err := insertMolecule(txn, name, ver, nLeaves)
					if err != nil {
						errc <- fmt.Errorf("writer %d insert: %w", w, err)
						return
					}
					mine = append(mine, stressMol{name: name, root: root, leaves: leaves})
				case rng.Intn(5) == 0:
					// Cascade delete: the whole molecule vanishes in one
					// commit (links cascade with the root; orphan leaves
					// are deleted in the same transaction).
					i := rng.Intn(len(mine))
					m := mine[i]
					if err := txn.DeleteAtom("root", m.root); err != nil {
						errc <- fmt.Errorf("writer %d delete root: %w", w, err)
						return
					}
					for _, l := range m.leaves {
						if err := txn.DeleteAtom("leaf", l); err != nil {
							errc <- fmt.Errorf("writer %d delete leaf: %w", w, err)
							return
						}
					}
					mine = append(mine[:i], mine[i+1:]...)
				case rng.Intn(3) == 0:
					// Leaf swap: replace one leaf and bump the whole
					// molecule to the new version, all in one commit.
					i := rng.Intn(len(mine))
					m := &mine[i]
					j := rng.Intn(len(m.leaves))
					old := m.leaves[j]
					fresh, err := txn.InsertAtom("leaf",
						model.Str(fmt.Sprintf("%s_swap%d", m.name, r)), model.Int(ver))
					if err != nil {
						errc <- fmt.Errorf("writer %d swap insert: %w", w, err)
						return
					}
					if err := txn.Connect("rl", m.root, fresh); err != nil {
						errc <- fmt.Errorf("writer %d swap connect: %w", w, err)
						return
					}
					if err := txn.DeleteAtom("leaf", old); err != nil {
						errc <- fmt.Errorf("writer %d swap delete: %w", w, err)
						return
					}
					if err := txn.UpdateAtom("root", m.root,
						[]model.Value{model.Str(m.name), model.Int(ver)}); err != nil {
						errc <- fmt.Errorf("writer %d swap update root: %w", w, err)
						return
					}
					m.leaves[j] = fresh
					for k, l := range m.leaves {
						if k == j {
							continue
						}
						if err := txn.UpdateAtom("leaf", l,
							[]model.Value{model.Str(fmt.Sprintf("%s_l%d", m.name, k)), model.Int(ver)}); err != nil {
							errc <- fmt.Errorf("writer %d swap update leaf: %w", w, err)
							return
						}
					}
				default:
					// Version bump: root and every leaf move to ver
					// together.
					i := rng.Intn(len(mine))
					m := mine[i]
					if err := txn.UpdateAtom("root", m.root,
						[]model.Value{model.Str(m.name), model.Int(ver)}); err != nil {
						errc <- fmt.Errorf("writer %d update root: %w", w, err)
						return
					}
					for k, l := range m.leaves {
						if err := txn.UpdateAtom("leaf", l,
							[]model.Value{model.Str(fmt.Sprintf("%s_l%d", m.name, k)), model.Int(ver)}); err != nil {
							errc <- fmt.Errorf("writer %d update leaf: %w", w, err)
							return
						}
					}
				}
				if err := txn.Commit(); err != nil {
					errc <- fmt.Errorf("writer %d commit round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}

	// Readers: each opens fresh streaming cursors against the shared
	// database and checks every delivered molecule against the snapshot
	// it is pinned to.
	rootC, _ := db.Container("root")
	leafC, _ := db.Container("leaf")
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for round := 0; round < readerRounds; round++ {
				p, err := plan.Compile(db, mt.Desc(), nil)
				if err != nil {
					errc <- fmt.Errorf("reader %d compile: %w", r, err)
					return
				}
				p.Workers = 2
				st, err := p.Stream(context.Background())
				if err != nil {
					errc <- fmt.Errorf("reader %d stream: %w", r, err)
					return
				}
				ts := st.SnapshotTS()
				n := 0
				for {
					m, err := st.Next()
					if err != nil {
						errc <- fmt.Errorf("reader %d next: %w", r, err)
						return
					}
					if m == nil {
						break
					}
					n++
					roots := m.AtomsOf("root")
					leaves := m.AtomsOf("leaf")
					if len(roots) != 1 || len(leaves) != nLeaves {
						errc <- fmt.Errorf("reader %d ts %d: torn molecule: %d roots, %d leaves",
							r, ts, len(roots), len(leaves))
						st.Close()
						return
					}
					// Read every atom back at the cursor's snapshot
					// timestamp: all must exist and agree on "v".
					ra, ok := db.View(ts).Atom(rootC, roots[0])
					if !ok {
						errc <- fmt.Errorf("reader %d ts %d: root %s vanished from snapshot", r, ts, roots[0])
						st.Close()
						return
					}
					want := ra.Get(1)
					for _, l := range leaves {
						la, ok := db.View(ts).Atom(leafC, l)
						if !ok {
							errc <- fmt.Errorf("reader %d ts %d: leaf %s vanished from snapshot", r, ts, l)
							st.Close()
							return
						}
						if got := la.Get(1); !got.Equal(want) {
							errc <- fmt.Errorf("reader %d ts %d: version tear: root v=%s leaf v=%s",
								r, ts, want, got)
							st.Close()
							return
						}
					}
				}
				if err := st.Close(); err != nil {
					errc <- fmt.Errorf("reader %d close: %w", r, err)
					return
				}
				if n < seedMols {
					errc <- fmt.Errorf("reader %d ts %d: only %d molecules (>= %d seeded)", r, ts, n, seedMols)
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		return
	}
	stopVacuum()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// With no snapshots left alive, vacuum reaches a fixpoint.
	db.Vacuum()
	if st := db.Vacuum(); st.Reclaimed != 0 {
		t.Fatalf("vacuum not at fixpoint: %+v", st)
	}
}
