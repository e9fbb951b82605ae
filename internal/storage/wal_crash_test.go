package storage

// Crash-injection harness for the write-ahead log. The tests here drive a
// durable database through a deterministic workload while a fault-injecting
// walFile fails, short-writes or "crashes" the log at every possible write
// and fsync, then recover the directory and check the one property the WAL
// exists for: the recovered state equals the in-memory twin replayed to
// some prefix K of the workload with acked ≤ K ≤ submitted. An acked
// commit may never vanish; an unacked commit may survive only if its
// record made it to the log whole.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mad/internal/model"
)

var errInjected = fmt.Errorf("walfault: injected failure")

const (
	// faultFail returns an error from the Nth operation without any side
	// effect: a failed write leaves the log as it was.
	faultFail = iota
	// faultShort writes half the buffer before erroring — the torn-record
	// case recovery must detect by length or checksum.
	faultShort
	// faultCrash acts like faultShort and then fails every later
	// operation, modelling process death mid-append.
	faultCrash
)

// faultFS builds walFiles over real files with one injected fault: the
// failAt-th operation (counting every Write and Sync across all segments)
// misbehaves per mode. failAt = 0 never fires.
type faultFS struct {
	mu     sync.Mutex
	events int
	failAt int
	mode   int
	dead   bool
}

func (fs *faultFS) open(path string) (walFile, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return nil, errInjected
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: fs, f: f}, nil
}

type faultFile struct {
	fs *faultFS
	f  *os.File
}

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return 0, errInjected
	}
	fs.events++
	if fs.events == fs.failAt {
		switch fs.mode {
		case faultShort, faultCrash:
			if fs.mode == faultCrash {
				fs.dead = true
			}
			n, _ := ff.f.Write(p[:len(p)/2])
			return n, errInjected
		default:
			return 0, errInjected
		}
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	fs := ff.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.dead {
		return errInjected
	}
	fs.events++
	if fs.events == fs.failAt {
		if fs.mode == faultCrash {
			fs.dead = true
		}
		return errInjected
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// walStep is one commit of the crash workload, applied identically to the
// durable database and the in-memory twin.
type walStep func(db *Database) error

// findByName resolves an atom by its first (name) attribute — id-agnostic
// so steps replay identically on both databases.
func findByName(db *Database, typ, name string) (model.AtomID, bool) {
	var id model.AtomID
	found := false
	db.ScanAtoms(typ, func(a model.Atom) bool {
		if s, _ := a.Get(0).AsString(); s == name {
			id, found = a.ID, true
			return false
		}
		return true
	})
	return id, found
}

func mustFind(db *Database, typ, name string) model.AtomID {
	id, ok := findByName(db, typ, name)
	if !ok {
		panic(fmt.Sprintf("walcrash: no %s named %q", typ, name))
	}
	return id
}

// crashScript is the deterministic workload: every step but one is
// exactly one commit, covering each WAL opcode — DDL, insert, index,
// connect, update, a multi-op transaction, one that defines and fills
// types, cascading deletes. The one in the middle is a checkpoint.
func crashScript() []walStep {
	partDesc := model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString, NotNull: true},
		model.AttrDesc{Name: "weight", Kind: model.KFloat},
	)
	supDesc := model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString, NotNull: true},
	)
	return []walStep{
		func(db *Database) error { _, err := db.DefineAtomType("part", partDesc); return err },
		func(db *Database) error { _, err := db.DefineAtomType("supplier", supDesc); return err },
		func(db *Database) error {
			_, err := db.DefineLinkType("supplies", model.LinkDesc{SideA: "supplier", SideB: "part"})
			return err
		},
		func(db *Database) error {
			_, err := db.InsertAtom("part", model.Str("bolt"), model.Float(0.1))
			return err
		},
		func(db *Database) error {
			_, err := db.InsertAtom("part", model.Str("nut"), model.Float(0.2))
			return err
		},
		func(db *Database) error { _, err := db.InsertAtom("supplier", model.Str("acme")); return err },
		func(db *Database) error { return db.CreateIndex("part", "name") },
		func(db *Database) error {
			return db.Connect("supplies", mustFind(db, "supplier", "acme"), mustFind(db, "part", "bolt"))
		},
		func(db *Database) error {
			return db.Connect("supplies", mustFind(db, "supplier", "acme"), mustFind(db, "part", "nut"))
		},
		func(db *Database) error {
			// The checkpoint writes its file through the log's opener, so its
			// every write and fsync is an injection point too. The in-memory
			// twin has no log: there the step changes nothing.
			if _, err := db.Checkpoint(); !errors.Is(err, ErrNotDurable) {
				return err
			}
			return nil
		},
		func(db *Database) error {
			id := mustFind(db, "part", "bolt")
			return db.UpdateAtom("part", id, []model.Value{model.Str("bolt"), model.Float(0.5)})
		},
		func(db *Database) error {
			t := db.Begin()
			defer t.Rollback()
			id, err := t.InsertAtom("part", model.Str("cog"), model.Float(1.5))
			if err != nil {
				return err
			}
			if err := t.Connect("supplies", mustFind(db, "supplier", "acme"), id); err != nil {
				return err
			}
			if _, err := t.Disconnect("supplies", mustFind(db, "supplier", "acme"), mustFind(db, "part", "nut")); err != nil {
				return err
			}
			return t.Commit()
		},
		func(db *Database) error {
			// A propagation-shaped transaction: it defines an atom type and a
			// link type and fills both — adopting one atom, minting another —
			// so recovery must show them absent or whole. A rolled-back
			// definition first leaves a hole in the type numbers below it.
			ghost := db.Begin()
			if err := ghost.DefineAtomType("ghost", partDesc); err != nil {
				return err
			}
			ghost.Rollback()
			t := db.Begin()
			defer t.Rollback()
			bolt := mustFind(db, "part", "bolt")
			a, _ := db.GetAtom("part", bolt)
			if err := t.DefineAtomType("heavy", partDesc); err != nil {
				return err
			}
			if err := t.DefineLinkType("heavy_of", model.LinkDesc{SideA: "heavy", SideB: "part"}); err != nil {
				return err
			}
			if err := t.AdoptAtom("heavy", a); err != nil {
				return err
			}
			if _, err := t.InsertAtom("heavy", model.Str("anvil"), model.Float(50)); err != nil {
				return err
			}
			if err := t.Connect("heavy_of", bolt, bolt); err != nil {
				return err
			}
			return t.Commit()
		},
		func(db *Database) error { _, err := db.DeleteAtom("part", mustFind(db, "part", "nut")); return err },
		func(db *Database) error {
			_, err := db.DeleteAtom("supplier", mustFind(db, "supplier", "acme"))
			return err
		},
		func(db *Database) error {
			_, err := db.InsertAtom("part", model.Str("washer"), model.Float(0.05))
			return err
		},
	}
}

// replayTwin applies the first k steps to a fresh in-memory database.
func replayTwin(t *testing.T, steps []walStep, k int) *Database {
	t.Helper()
	twin := NewDatabase()
	for i := 0; i < k; i++ {
		if err := steps[i](twin); err != nil {
			t.Fatalf("twin step %d: %v", i, err)
		}
	}
	return twin
}

// fingerprint renders the visible state — atom types with their numbers,
// atoms, links, index definitions — as a canonical string for
// whole-database equality checks.
func fingerprint(db *Database) string {
	var b strings.Builder
	types := db.Schema().AtomTypes()
	sort.Slice(types, func(i, j int) bool { return types[i].Name < types[j].Name })
	for _, at := range types {
		var rows []string
		db.ScanAtoms(at.Name, func(a model.Atom) bool {
			vals := make([]string, len(a.Vals))
			for i, v := range a.Vals {
				vals[i] = v.String()
			}
			rows = append(rows, fmt.Sprintf("%d=%s", a.ID, strings.Join(vals, ",")))
			return true
		})
		sort.Strings(rows)
		fmt.Fprintf(&b, "atoms %s #%d: %s\n", at.Name, at.Num, strings.Join(rows, " "))
	}
	links := db.Schema().LinkTypes()
	sort.Slice(links, func(i, j int) bool { return links[i].Name < links[j].Name })
	for _, lt := range links {
		ls, ok := db.LinkStore(lt.Name)
		if !ok {
			continue
		}
		var rows []string
		ls.Scan(func(l model.Link) bool {
			rows = append(rows, fmt.Sprintf("%d-%d", l.A, l.B))
			return true
		})
		sort.Strings(rows)
		fmt.Fprintf(&b, "links %s: %s\n", lt.Name, strings.Join(rows, " "))
	}
	db.mu.RLock()
	ixs := make([]string, 0, len(db.indexes))
	for k := range db.indexes {
		ixs = append(ixs, k)
	}
	db.mu.RUnlock()
	sort.Strings(ixs)
	fmt.Fprintf(&b, "indexes: %s\n", strings.Join(ixs, " "))
	return b.String()
}

// runScript applies steps to db until the first error, returning how many
// commits were acknowledged.
func runScript(db *Database, steps []walStep) (acked int) {
	for _, s := range steps {
		if err := s(db); err != nil {
			return acked
		}
		acked++
	}
	return acked
}

// checkPrefixConsistent recovers dir and asserts the state equals the twin
// at commit acked or acked+1 (the in-flight commit may survive whole).
func checkPrefixConsistent(t *testing.T, dir string, steps []walStep, acked int, label string) {
	t.Helper()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	got := fingerprint(rec)
	want := []string{fingerprint(replayTwin(t, steps, acked))}
	if acked < len(steps) {
		want = append(want, fingerprint(replayTwin(t, steps, acked+1)))
	}
	for _, w := range want {
		if got == w {
			if err := rec.CheckIntegrity(); err != nil {
				t.Fatalf("%s: integrity after recovery: %v", label, err)
			}
			return
		}
	}
	t.Fatalf("%s: recovered state is no prefix of the workload (acked %d)\ngot:\n%s\nwant one of:\n%s",
		label, acked, got, strings.Join(want, "\n--- or ---\n"))
}

// TestCrashInjectionEveryPoint fails/short-writes/crashes the log at every
// single write and fsync the workload issues and checks every outcome
// recovers to a consistent prefix.
func TestCrashInjectionEveryPoint(t *testing.T) {
	steps := crashScript()

	// Dry run with the fault disarmed to learn how many injection points
	// the workload has (Close's final fsync included).
	probe := &faultFS{}
	dir := t.TempDir()
	db, err := openWith(dir, probe.open)
	if err != nil {
		t.Fatal(err)
	}
	if got := runScript(db, steps); got != len(steps) {
		t.Fatalf("fault-free run acked %d of %d", got, len(steps))
	}
	db.Close()
	probe.mu.Lock()
	points := probe.events
	probe.mu.Unlock()
	if points < len(steps) {
		t.Fatalf("only %d injection points for %d commits", points, len(steps))
	}

	for mode, name := range map[int]string{faultFail: "fail", faultShort: "short", faultCrash: "crash"} {
		for at := 1; at <= points; at++ {
			label := fmt.Sprintf("%s@%d", name, at)
			fs := &faultFS{failAt: at, mode: mode}
			fdir := t.TempDir()
			fdb, err := openWith(fdir, fs.open)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			acked := runScript(fdb, steps)
			fdb.Close()
			checkPrefixConsistent(t, fdir, steps, acked, label)
		}
	}
}

// lastWALSegment returns the path of the newest log segment in dir.
func lastWALSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	return segs[len(segs)-1]
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

// TestTornTailRecovery truncates a healthy log at every byte offset inside
// its final records and appends garbage tails, asserting each mutilation
// recovers to SOME prefix of the workload — never a torn half-commit.
func TestTornTailRecovery(t *testing.T) {
	steps := crashScript()
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := runScript(db, steps); got != len(steps) {
		t.Fatalf("acked %d of %d", got, len(steps))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	seg := lastWALSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}

	prefixes := make(map[string]int, len(steps)+1)
	for k := 0; k <= len(steps); k++ {
		prefixes[fingerprint(replayTwin(t, steps, k))] = k
	}

	// Cut every byte of the final quarter of the log and sample the rest.
	cuts := []int{}
	for c := len(data) - 1; c > 0; c-- {
		if c >= len(data)*3/4 || c%17 == 0 {
			cuts = append(cuts, c)
		}
	}
	lastK := len(steps) + 1
	for _, cut := range cuts {
		mdir := copyDir(t, dir)
		mseg := lastWALSegment(t, mdir)
		if err := os.Truncate(mseg, int64(cut)); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(mdir)
		if err != nil {
			t.Fatalf("cut@%d: recover: %v", cut, err)
		}
		k, ok := prefixes[fingerprint(rec)]
		if !ok {
			t.Fatalf("cut@%d: recovered state matches no workload prefix", cut)
		}
		if k > lastK {
			t.Fatalf("cut@%d: shorter log recovered MORE commits (%d after %d)", cut, k, lastK)
		}
		lastK = k

		// A truncated directory must also survive a writable re-open:
		// Open discards the torn tail and accepts new commits.
		wdb, err := Open(mdir)
		if err != nil {
			t.Fatalf("cut@%d: re-open: %v", cut, err)
		}
		wdb.Close()
	}

	// Garbage appended past the last full record must be discarded.
	for _, tail := range [][]byte{
		{0x00},
		{0xde, 0xad, 0xbe, 0xef},
		make([]byte, 64),
	} {
		mdir := copyDir(t, dir)
		mseg := lastWALSegment(t, mdir)
		f, err := os.OpenFile(mseg, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.Write(tail)
		f.Close()
		rec, err := Recover(mdir)
		if err != nil {
			t.Fatalf("garbage tail: recover: %v", err)
		}
		if k := prefixes[fingerprint(rec)]; k != len(steps) {
			t.Fatalf("garbage tail: recovered %d of %d commits", k, len(steps))
		}
	}
}

// randOp is one entry of the randomized workload, interpreted against
// whatever state the prefix produced so it replays identically on the
// durable database and the twin.
type randOp struct {
	kind int // 0 insert1, 1 insert2, 2 update, 3 delete, 4 connect, 5 disconnect, 6 txn
	k, j int
	val  int64
}

func randomScript(rng *rand.Rand, n int) []walStep {
	d1 := model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString, NotNull: true},
		model.AttrDesc{Name: "n", Kind: model.KInt},
	)
	d2 := model.MustDesc(model.AttrDesc{Name: "name", Kind: model.KString, NotNull: true})
	steps := []walStep{
		func(db *Database) error { _, err := db.DefineAtomType("t1", d1); return err },
		func(db *Database) error { _, err := db.DefineAtomType("t2", d2); return err },
		func(db *Database) error {
			_, err := db.DefineLinkType("l12", model.LinkDesc{SideA: "t1", SideB: "t2"})
			return err
		},
	}
	seq := 0
	ids := func(db *Database, typ string) []model.AtomID {
		var out []model.AtomID
		db.ScanAtoms(typ, func(a model.Atom) bool { out = append(out, a.ID); return true })
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	for i := 0; i < n; i++ {
		op := randOp{kind: rng.Intn(7), k: rng.Int(), j: rng.Int(), val: rng.Int63n(1000)}
		seq++
		name := fmt.Sprintf("a%d", seq)
		steps = append(steps, func(db *Database) error {
			switch op.kind {
			case 0:
				_, err := db.InsertAtom("t1", model.Str(name), model.Int(op.val))
				return err
			case 1:
				_, err := db.InsertAtom("t2", model.Str(name))
				return err
			case 2:
				xs := ids(db, "t1")
				if len(xs) == 0 {
					_, err := db.InsertAtom("t1", model.Str(name), model.Int(op.val))
					return err
				}
				id := xs[op.k%len(xs)]
				a, _ := db.GetAtom("t1", id)
				return db.UpdateAtom("t1", id, []model.Value{a.Get(0), model.Int(op.val)})
			case 3:
				xs := ids(db, "t1")
				if len(xs) == 0 {
					_, err := db.InsertAtom("t1", model.Str(name), model.Int(op.val))
					return err
				}
				_, err := db.DeleteAtom("t1", xs[op.k%len(xs)])
				return err
			case 4, 5:
				xs, ys := ids(db, "t1"), ids(db, "t2")
				if len(xs) == 0 || len(ys) == 0 {
					_, err := db.InsertAtom("t2", model.Str(name))
					return err
				}
				a, b2 := xs[op.k%len(xs)], ys[op.j%len(ys)]
				if op.kind == 4 {
					return db.Connect("l12", a, b2)
				}
				_, err := db.Disconnect("l12", a, b2)
				return err
			default:
				t := db.Begin()
				defer t.Rollback()
				id, err := t.InsertAtom("t1", model.Str(name), model.Int(op.val))
				if err != nil {
					return err
				}
				if ys := ids(db, "t2"); len(ys) > 0 {
					if err := t.Connect("l12", id, ys[op.j%len(ys)]); err != nil {
						return err
					}
				}
				return t.Commit()
			}
		})
	}
	return steps
}

// TestRecoveryRoundTripRandom runs seeded random workloads, crashes the
// log at a random operation, and checks recovery lands on the acked
// prefix (or one commit past it), passes CheckIntegrity, and vacuums down
// to exactly the twin's version count.
func TestRecoveryRoundTripRandom(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			steps := randomScript(rng, 60)

			// Fault-free probe: count injection points.
			probe := &faultFS{}
			pdir := t.TempDir()
			pdb, err := openWith(pdir, probe.open)
			if err != nil {
				t.Fatal(err)
			}
			if got := runScript(pdb, steps); got != len(steps) {
				t.Fatalf("fault-free run acked %d of %d", got, len(steps))
			}
			pdb.Close()
			probe.mu.Lock()
			points := probe.events
			probe.mu.Unlock()

			at := 1 + rng.Intn(points)
			fs := &faultFS{failAt: at, mode: faultCrash}
			dir := t.TempDir()
			db, err := openWith(dir, fs.open)
			if err != nil {
				t.Fatal(err)
			}
			acked := runScript(db, steps)
			db.Close()

			rec, err := Recover(dir)
			if err != nil {
				t.Fatalf("crash@%d: recover: %v", at, err)
			}
			got := fingerprint(rec)
			k := -1
			for _, cand := range []int{acked, acked + 1} {
				if cand <= len(steps) && fingerprint(replayTwin(t, steps, cand)) == got {
					k = cand
					break
				}
			}
			if k < 0 {
				t.Fatalf("crash@%d: recovered state is no prefix (acked %d)\n%s", at, acked, got)
			}
			if err := rec.CheckIntegrity(); err != nil {
				t.Fatalf("crash@%d: integrity: %v", at, err)
			}
			twin := replayTwin(t, steps, k)
			rec.Vacuum()
			twin.Vacuum()
			if rv, tv := rec.VersionCount(), twin.VersionCount(); rv != tv {
				t.Fatalf("crash@%d: version count after vacuum: recovered %d, twin %d", at, rv, tv)
			}
		})
	}
}

// slowFS wraps real files with an artificially slow fsync, making fsync
// batching observable regardless of how fast the test filesystem is.
type slowFS struct{}

func (slowFS) open(path string) (walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return slowFile{f}, nil
}

type slowFile struct{ f *os.File }

func (sf slowFile) Write(p []byte) (int, error) { return sf.f.Write(p) }
func (sf slowFile) Sync() error {
	busySleep()
	return sf.f.Sync()
}
func (sf slowFile) Close() error { return sf.f.Close() }

// syncEachWrite wraps a walOpenFunc so that every Write is followed by
// its own fsync — the per-commit-sync baseline group commit is measured
// against, which production code has no switch for. syncs counts those
// fsyncs.
type syncEachWrite struct {
	open  walOpenFunc
	syncs atomic.Int64
}

func (se *syncEachWrite) openFile(path string) (walFile, error) {
	f, err := se.open(path)
	if err != nil {
		return nil, err
	}
	return syncEachFile{walFile: f, se: se}, nil
}

type syncEachFile struct {
	walFile
	se *syncEachWrite
}

func (sf syncEachFile) Write(p []byte) (int, error) {
	n, err := sf.walFile.Write(p)
	if err == nil {
		sf.se.syncs.Add(1)
		err = sf.walFile.Sync()
	}
	return n, err
}

// busySleep delays ~1ms without the scheduler-granularity noise of
// time.Sleep on loaded CI machines.
func busySleep() {
	x := 0
	for i := 0; i < 1<<16; i++ {
		x += i
	}
	_ = x
}

// TestGroupCommitBatchesFsyncs checks the group-commit contract end to
// end: with 16 concurrent committers one flusher fsync acknowledges many
// appends, while a log that syncs each write pays one fsync per record.
func TestGroupCommitBatchesFsyncs(t *testing.T) {
	const writers, perWriter = 16, 20

	run := func(open walOpenFunc) (appends, syncs int64) {
		dir := t.TempDir()
		db, err := openWith(dir, open)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		d := model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})
		if _, err := db.DefineAtomType("t", d); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < perWriter; i++ {
					if _, err := db.InsertAtom("t", model.Int(int64(w*1000+i))); err != nil {
						t.Errorf("insert: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		return db.WALCounters()
	}

	appends, syncs := run(slowFS{}.open)
	if want := int64(writers*perWriter + 1); appends != want {
		t.Fatalf("group: appends = %d, want %d", appends, want)
	}
	if syncs >= appends/2 {
		t.Fatalf("group commit did not batch: %d fsyncs for %d appends", syncs, appends)
	}

	naive := &syncEachWrite{open: slowFS{}.open}
	nAppends, _ := run(naive.openFile)
	if nSyncs := naive.syncs.Load(); nSyncs < nAppends {
		t.Fatalf("sync-each-write baseline batched: %d fsyncs for %d appends", nSyncs, nAppends)
	}
}

// TestCheckpointPinsAgainstVacuum commits and vacuums WHILE a checkpoint
// holds its pin (via the test hook that runs between pin and encode) and
// asserts the vacuum horizon stops at the checkpoint's timestamp — then
// proves the point by recovering and comparing against the live state.
func TestCheckpointPinsAgainstVacuum(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString, NotNull: true},
		model.AttrDesc{Name: "n", Kind: model.KInt},
	)
	if _, err := db.DefineAtomType("t", d); err != nil {
		t.Fatal(err)
	}
	ids := make([]model.AtomID, 0, 20)
	for i := 0; i < 20; i++ {
		id, err := db.InsertAtom("t", model.Str(fmt.Sprintf("a%d", i)), model.Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	var horizon uint64
	db.ckptTestHook = func() {
		// The checkpoint's read view is pinned; overwrite every atom so
		// the pre-pin versions are exactly what vacuum would love to
		// reclaim, then vacuum.
		for i, id := range ids {
			if err := db.UpdateAtom("t", id, []model.Value{model.Str(fmt.Sprintf("a%d", i)), model.Int(int64(i + 100))}); err != nil {
				t.Errorf("in-hook update: %v", err)
			}
		}
		horizon = db.Vacuum().Horizon
	}
	cs, err := db.Checkpoint()
	db.ckptTestHook = nil
	if err != nil {
		t.Fatal(err)
	}
	if horizon > cs.TS {
		t.Fatalf("vacuum horizon %d passed the checkpoint pin %d", horizon, cs.TS)
	}

	// The checkpoint encoded the pinned view and the log holds the in-hook
	// updates; recovery must reproduce the live state exactly.
	live := fingerprint(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rec); got != live {
		t.Fatalf("recovered state diverges from live state\nlive:\n%s\ngot:\n%s", live, got)
	}
	for i, id := range ids {
		a, ok := rec.GetAtom("t", id)
		if !ok {
			t.Fatalf("atom %d lost", id)
		}
		if n, _ := a.Get(1).AsInt(); n != int64(i+100) {
			t.Fatalf("atom %d: n = %d, want %d (post-pin update lost)", id, n, i+100)
		}
	}
}

// TestMidCheckpointCrashFallsBack freezes the directory at the moment a
// second checkpoint has rotated the log but not yet written its snapshot
// (plus a stale tmp file, as a crash mid-encode leaves), and checks
// recovery falls back to the first checkpoint plus a longer log replay —
// losing nothing.
func TestMidCheckpointCrashFallsBack(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})
	if _, err := db.DefineAtomType("t", d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := db.InsertAtom("t", model.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 25; i++ {
		if _, err := db.InsertAtom("t", model.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	want := fingerprint(db)

	var frozen string
	db.ckptTestHook = func() { frozen = copyDir(t, dir) }
	if _, err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.ckptTestHook = nil
	db.Close()
	if frozen == "" {
		t.Fatal("checkpoint hook never ran")
	}
	// A crash mid-encode also leaves a partial tmp file behind.
	if err := os.WriteFile(filepath.Join(frozen, ckptTmpFile), []byte("partial checkpoint garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(frozen)
	if err != nil {
		t.Fatalf("open after mid-checkpoint crash: %v", err)
	}
	defer rec.Close()
	if got := fingerprint(rec); got != want {
		t.Fatalf("fallback recovery lost data\nwant:\n%s\ngot:\n%s", want, got)
	}
	if _, err := os.Stat(filepath.Join(frozen, ckptTmpFile)); !os.IsNotExist(err) {
		t.Fatalf("stale checkpoint tmp not removed (stat err %v)", err)
	}
}

// TestCheckpointTruncatesLog checks the log shrinks to the current segment
// after a checkpoint and that recovery still sees everything.
func TestCheckpointTruncatesLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})
	if _, err := db.DefineAtomType("t", d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.InsertAtom("t", model.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := db.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsRemoved == 0 {
		t.Fatal("checkpoint removed no segments")
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if len(segs) != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1", len(segs))
	}
	want := fingerprint(db)
	db.Close()
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(rec); got != want {
		t.Fatalf("post-checkpoint recovery diverged\nwant:\n%s\ngot:\n%s", want, got)
	}
}
