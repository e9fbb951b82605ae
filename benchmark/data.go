package main

import (
	"fmt"
	"math/rand"

	"mad/internal/model"
	"mad/internal/storage"
)

// The benchmark owns its data generator: a later change may refactor the
// experiments package's builders, and the benchmark must stay identical
// on both sides of a comparison. The seed fixes attribute values, which
// atoms are flagged and the order of literals; sizes and selectivities
// are the same for every seed, so a metric does not move with the seed.

// scale sizes the generated database. Full is what BENCHMARK.json
// measures; the smoke test shrinks it.
type scale struct {
	asms      int // asm roots, each with unitsPer units of partsPer parts
	unitsPer  int
	partsPer  int
	grid      int // jobs = grid*grid, one per (machine.site, tool.grade) pair
	steps     int // steps per job
	bomLevels int
	bomWidth  int
	preload   int // commit-mix: asm-unit-part molecules loaded before the window
}

var fullScale = scale{asms: 4096, unitsPer: 4, partsPer: 4, grid: 64, steps: 16,
	bomLevels: 12, bomWidth: 200, preload: 8192}

var tinyScale = scale{asms: 128, unitsPer: 2, partsPer: 2, grid: 8, steps: 2,
	bomLevels: 6, bomWidth: 10, preload: 128}

const (
	flagClasses = 8  // flagged serials "F-0".."F-7"
	flagEvery   = 64 // one asm in flagEvery carries a given flag
	bays        = 16 // distinct asm.bay values (GROUP BY buckets)
	bomFan      = 3  // children per part in the composition DAG
)

// shop is the generated database plus what the generator knows about it:
// which atom carries which literal. The expected answers are derived from
// that knowledge and the naive derivation, never from the planner.
type shop struct {
	db *storage.Database
	sc scale

	asm     []model.AtomID // by creation index
	code    []string       // asm[i].code
	serials [][]string     // serials[i] = part serials under asm[i]
	flagged [][]int        // flagged[f] = asm indexes carrying serial "F-<f>"
	job     []model.AtomID // job[g*grid+s] has machine.site s and tool.grade g
	parts   [][]model.AtomID
	pn      [][]int64
}

func flagSerial(f int) string { return fmt.Sprintf("F-%d", f) }

func defineAsmSchema(db *storage.Database) error {
	types := []struct {
		name string
		desc *model.Desc
	}{
		{"asm", model.MustDesc(
			model.AttrDesc{Name: "code", Kind: model.KString},
			model.AttrDesc{Name: "bay", Kind: model.KInt},
			model.AttrDesc{Name: "rank", Kind: model.KInt})},
		{"unit", model.MustDesc(model.AttrDesc{Name: "slot", Kind: model.KInt})},
		{"part", model.MustDesc(
			model.AttrDesc{Name: "serial", Kind: model.KString},
			model.AttrDesc{Name: "weight", Kind: model.KFloat})},
	}
	for _, t := range types {
		if _, err := db.DefineAtomType(t.name, t.desc); err != nil {
			return err
		}
	}
	for _, l := range [][3]string{{"asm-unit", "asm", "unit"}, {"unit-part", "unit", "part"}} {
		if _, err := db.DefineLinkType(l[0], model.LinkDesc{SideA: l[1], SideB: l[2]}); err != nil {
			return err
		}
	}
	return nil
}

// atomSink is the part of storage.Database and storage.Txn the
// generators write through: the in-memory shop goes straight to the
// database, the durable commit-mix preload through batched transactions.
type atomSink interface {
	InsertAtom(typeName string, vals ...model.Value) (model.AtomID, error)
	Connect(linkName string, a, b model.AtomID) error
}

// addAsm inserts assembly i — asm, units, parts, links — and records what
// the generator knows about it. A non-empty firstSerial (a flag) replaces
// the serial of the assembly's first part.
func (s *shop) addAsm(sink atomSink, rng *rand.Rand, i int, code string, rank int64, firstSerial string) error {
	aid, err := sink.InsertAtom("asm", model.Str(code), model.Int(int64(rng.Intn(bays))), model.Int(rank))
	if err != nil {
		return err
	}
	s.asm = append(s.asm, aid)
	s.code = append(s.code, code)
	var serials []string
	for u := 0; u < s.sc.unitsPer; u++ {
		uid, err := sink.InsertAtom("unit", model.Int(int64(u)))
		if err != nil {
			return err
		}
		if err := sink.Connect("asm-unit", aid, uid); err != nil {
			return err
		}
		for k := 0; k < s.sc.partsPer; k++ {
			serial := fmt.Sprintf("SN-%d-%d-%d", i, u, k)
			if u == 0 && k == 0 && firstSerial != "" {
				serial = firstSerial
			}
			serials = append(serials, serial)
			// Weights have three decimals so that results render to about
			// the same number of bytes for every seed.
			w := float64(rng.Intn(4000)) / 1000
			pid, err := sink.InsertAtom("part", model.Str(serial), model.Float(w))
			if err != nil {
				return err
			}
			if err := sink.Connect("unit-part", uid, pid); err != nil {
				return err
			}
		}
	}
	s.serials = append(s.serials, serials)
	return nil
}

// flagAsms picks, for each flag class, one asm in flagEvery at a
// seed-chosen offset to carry the serial "F-<f>".
func (s *shop) flagAsms(rng *rand.Rand) map[int]string {
	s.flagged = make([][]int, flagClasses)
	flagOf := make(map[int]string)
	offs := rng.Perm(flagEvery)
	for f := 0; f < flagClasses; f++ {
		for i := offs[f]; i < s.sc.asms; i += flagEvery {
			s.flagged[f] = append(s.flagged[f], i)
			flagOf[i] = flagSerial(f)
		}
	}
	return flagOf
}

// buildShop generates the in-memory database the read workloads share:
// the asm-unit-part population, the job grid and the composition DAG,
// with their indexes and ANALYZE histograms.
func buildShop(seed int64, sc scale) (*shop, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &shop{db: storage.NewDatabase(), sc: sc}
	db := s.db
	if err := defineAsmSchema(db); err != nil {
		return nil, err
	}
	codes, ranks := rng.Perm(sc.asms), rng.Perm(sc.asms)
	flagOf := s.flagAsms(rng)
	for i := 0; i < sc.asms; i++ {
		if err := s.addAsm(db, rng, i, fmt.Sprintf("A%d", codes[i]), int64(ranks[i]), flagOf[i]); err != nil {
			return nil, err
		}
	}
	if err := s.buildJobs(); err != nil {
		return nil, err
	}
	if err := s.buildBOM(rng); err != nil {
		return nil, err
	}
	for _, ix := range [][2]string{{"asm", "code"}, {"part", "serial"},
		{"machine", "site"}, {"tool", "grade"}, {"parts", "pn"}} {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			return nil, err
		}
	}
	if _, err := db.Analyze(); err != nil {
		return nil, err
	}
	return s, nil
}

// buildJobs lays out the grid×grid job shop: exactly one job per
// (machine.site, tool.grade) pair, so an indexed intersection returns one
// molecule whatever the literals.
func (s *shop) buildJobs() error {
	db := s.db
	for _, t := range [][2]string{{"job", "id"}, {"machine", "site"}, {"tool", "grade"}, {"step", "seq"}} {
		if _, err := db.DefineAtomType(t[0], model.MustDesc(model.AttrDesc{Name: t[1], Kind: model.KInt})); err != nil {
			return err
		}
	}
	for _, l := range [][3]string{{"job-machine", "job", "machine"}, {"job-tool", "job", "tool"}, {"job-step", "job", "step"}} {
		if _, err := db.DefineLinkType(l[0], model.LinkDesc{SideA: l[1], SideB: l[2]}); err != nil {
			return err
		}
	}
	g := s.sc.grid
	for i := 0; i < g*g; i++ {
		jid, err := db.InsertAtom("job", model.Int(int64(i)))
		if err != nil {
			return err
		}
		s.job = append(s.job, jid)
		add := func(typ, link string, val int64) error {
			id, err := db.InsertAtom(typ, model.Int(val))
			if err != nil {
				return err
			}
			return db.Connect(link, jid, id)
		}
		if err := add("machine", "job-machine", int64(i%g)); err != nil {
			return err
		}
		if err := add("tool", "job-tool", int64(i/g)); err != nil {
			return err
		}
		for k := 0; k < s.sc.steps; k++ {
			if err := add("step", "job-step", int64(k)); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildBOM lays out the reconvergent composition DAG: every part of a
// level is used by bomFan parts of the level above, so sub-assemblies are
// shared and an explosion re-reaches them along several paths.
func (s *shop) buildBOM(rng *rand.Rand) error {
	db := s.db
	if _, err := db.DefineAtomType("parts", model.MustDesc(
		model.AttrDesc{Name: "pn", Kind: model.KInt},
		model.AttrDesc{Name: "cat", Kind: model.KInt})); err != nil {
		return err
	}
	if _, err := db.DefineLinkType("composition", model.LinkDesc{SideA: "parts", SideB: "parts"}); err != nil {
		return err
	}
	w := s.sc.bomWidth
	for l := 0; l < s.sc.bomLevels; l++ {
		ids, pns := make([]model.AtomID, w), make([]int64, w)
		for i, p := range rng.Perm(w) {
			pns[i] = int64(l*10000 + p)
			id, err := db.InsertAtom("parts", model.Int(pns[i]), model.Int(int64(rng.Intn(bays))))
			if err != nil {
				return err
			}
			ids[i] = id
		}
		s.parts, s.pn = append(s.parts, ids), append(s.pn, pns)
	}
	for l := 0; l+1 < s.sc.bomLevels; l++ {
		for i := 0; i < w; i++ {
			for _, j := range [bomFan]int{(2 * i) % w, (2*i + 1) % w, (i + 7) % w} {
				if err := db.Connect("composition", s.parts[l][i], s.parts[l+1][j]); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// preloadBatch is how many assemblies one preload transaction carries.
const preloadBatch = 512

// openDurableShop creates the commit-mix database in dir: the asm-unit-
// part schema with its indexes, sc.preload assemblies committed in
// batches through the write-ahead log, then ANALYZE and a checkpoint so
// the measured window starts from a short log.
func openDurableShop(dir string, seed int64, sc scale) (*shop, error) {
	db, err := storage.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &shop{db: db, sc: sc}
	// Small molecules keep the preload, and so set-up, short.
	s.sc.asms, s.sc.unitsPer, s.sc.partsPer = sc.preload, 2, 2
	if err := s.loadDurable(seed); err != nil {
		db.Close()
		return nil, err
	}
	return s, nil
}

func (s *shop) loadDurable(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	db := s.db
	if err := defineAsmSchema(db); err != nil {
		return err
	}
	if _, err := db.DefineAtomType("depot", model.MustDesc(
		model.AttrDesc{Name: "name", Kind: model.KString},
		model.AttrDesc{Name: "stock", Kind: model.KInt})); err != nil {
		return err
	}
	for _, ix := range [][2]string{{"asm", "code"}, {"part", "serial"}} {
		if err := db.CreateIndex(ix[0], ix[1]); err != nil {
			return err
		}
	}
	n := s.sc.asms
	codes, ranks := rng.Perm(n), rng.Perm(n)
	for lo := 0; lo < n; lo += preloadBatch {
		t := db.Begin()
		for i := lo; i < min(lo+preloadBatch, n); i++ {
			if err := s.addAsm(t, rng, i, fmt.Sprintf("A%d", codes[i]), int64(ranks[i]), ""); err != nil {
				t.Rollback()
				return err
			}
		}
		if err := t.Commit(); err != nil {
			return err
		}
	}
	t := db.Begin()
	for d := 0; d < depots; d++ {
		if _, err := t.InsertAtom("depot", model.Str(depotName(d)), model.Int(0)); err != nil {
			t.Rollback()
			return err
		}
	}
	if err := t.Commit(); err != nil {
		return err
	}
	if _, err := db.Analyze(); err != nil {
		return err
	}
	_, err := db.Checkpoint()
	return err
}

// depots is the size of the small hot table every commit-mix transaction
// updates one row of: the UPDATE's scan stays short, and the rows grow
// the version chains that vacuum reclaims.
const depots = 16

func depotName(d int) string { return fmt.Sprintf("D%d", d) }
