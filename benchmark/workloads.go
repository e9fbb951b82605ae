package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"mad/internal/model"
)

// stmt is one request of a workload and what its answer must be.
type stmt struct {
	text string
	tmpl int  // index into the workload's templates
	want want // how the response is checked
	// scan marks a statement that derives a molecule for every root of its
	// structure before it filters: the traced pass times derivation and
	// predicate evaluation over all roots for it, not over the result.
	scan bool
	// txn is set on a write transaction; the traced pass replays it
	// through the storage API to time the commit alone.
	txn *txnSpec
}

// txnSpec is the content of one commit-mix transaction: one asm and two
// unit atoms inserted, one depot row updated.
type txnSpec struct {
	code  string
	bay   int64
	n     int64 // the asm's rank and the depot's new stock
	depot string
}

type wantKind uint8

const (
	wantSet      wantKind = iota // the oracle's molecules, in any order
	wantSequence                 // the oracle's molecules, in its order
	wantContains                 // n molecules and a given substring
	wantEven                     // a count that is even and not below n
)

type want struct {
	kind     wantKind
	ans      answer // wantSet, wantSequence
	n        int    // wantContains: molecules; wantEven: least count
	contains []byte
}

// check judges a response body and returns the molecules it delivered.
func (w want) check(body []byte) (int, error) {
	a := digest(body)
	if a.molecules > 0 && a.stated != a.molecules {
		return 0, fmt.Errorf("summary states %d molecule(s), %d delivered", a.stated, a.molecules)
	}
	switch w.kind {
	case wantSet, wantSequence:
		if a.molecules != w.ans.molecules || a.stated != w.ans.stated {
			return 0, fmt.Errorf("%d molecule(s) (stated %d), want %d (stated %d)",
				a.molecules, a.stated, w.ans.molecules, w.ans.stated)
		}
		if a.multiset != w.ans.multiset {
			return 0, fmt.Errorf("content differs from the naive derivation")
		}
		if w.kind == wantSequence && a.sequence != w.ans.sequence {
			return 0, fmt.Errorf("order differs from the naive derivation")
		}
	case wantContains:
		if a.molecules != w.n || !bytes.Contains(body, w.contains) {
			return 0, fmt.Errorf("%d molecule(s), want %d and %q", a.molecules, w.n, w.contains)
		}
	case wantEven:
		if a.stated < w.n || a.stated%2 != 0 {
			return 0, fmt.Errorf("count %d: a transaction inserts two, so it must be even and at least %d", a.stated, w.n)
		}
	}
	return a.molecules, nil
}

// connPlan is the endless statement stream of one client connection: a
// fixed rotation of templates, each slot drawing its template's next
// instance, so every rotation costs the same whatever the seed.
type connPlan struct {
	init     []string // sent once after connecting (PREPARE)
	rotation []int    // template of each slot
	nth      []int    // nth[s]: how many earlier slots of the rotation share slot s's template
	per      []int    // per[t]: slots of template t in one rotation
	gen      []func(i int) stmt
}

func newConnPlan(init []string, weights []int, gen []func(i int) stmt) connPlan {
	p := connPlan{init: init, rotation: interleave(weights), per: weights, gen: gen}
	seen := make([]int, len(weights))
	for _, t := range p.rotation {
		p.nth = append(p.nth, seen[t])
		seen[t]++
	}
	return p
}

// at returns the k-th statement of the stream.
func (p connPlan) at(k int) stmt {
	slot := k % len(p.rotation)
	t := p.rotation[slot]
	st := p.gen[t](k/len(p.rotation)*p.per[t] + p.nth[slot])
	st.tmpl = t
	return st
}

// interleave returns a rotation in which template t fills weights[t]
// slots, spread evenly.
func interleave(weights []int) []int {
	total := 0
	for _, w := range weights {
		total += w
	}
	acc := make([]int, len(weights))
	out := make([]int, 0, total)
	for len(out) < total {
		for t, w := range weights {
			if acc[t] += w; acc[t] >= total {
				acc[t] -= total
				out = append(out, t)
			}
		}
	}
	return out
}

// fromPool cycles through pre-generated statements, starting at offset.
func fromPool(pool []stmt, offset int) func(int) stmt {
	return func(i int) stmt { return pool[(offset+i)%len(pool)] }
}

// workload is one traffic mix. See README.md for why each exists.
type workload struct {
	name      string
	why       string
	clients   int      // connections, all from this one process
	durable   bool     // storage.Open in a directory instead of the in-memory shop
	templates []string // names of the statement templates
	warm      int      // rotations sent before timing starts
	// measured lists the connections whose samples feed the end-to-end
	// metrics; the others only generate load beside them.
	measured []int
	// plans builds each connection's statement stream and, through the
	// oracle, the answers; it runs once per process, outside setup_s.
	plans func(s *shop, o *oracle, rng *rand.Rand) ([]connPlan, error)
}

const (
	structAsm = "asm-unit-part"
	chainHead = "unit.slot >= part.weight AND COUNT(part) >= COUNT(unit) AND NOT part.serial = "
)

var workloads = []workload{
	{
		name:      "point-lookup",
		clients:   2,
		why:       "short selective statements on 2 connections: framing, parse, plan compile/cache and access-path choice are nearly all of the latency",
		templates: []string{"by-code", "by-serial", "execute", "explode", "ordered"},
		warm:      40, measured: []int{0, 1},
		plans: pointLookupPlans,
	},
	{
		name:      "bulk-scan",
		clients:   1,
		why:       "unfiltered whole-structure retrievals on 1 connection: derivation, rendering and CHUNK writes do the work, and streaming shows",
		templates: []string{"asm-unit-part", "projected", "unit-part", "job"},
		warm:      1, measured: []int{0},
		plans: bulkScanPlans,
	},
	{
		name:      "residual-filter",
		clients:   1,
		why:       "derives every molecule and returns at most 64 on 1 connection: predicate evaluation dominates, rendering and the wire are negligible",
		templates: []string{"chain", "group", "top-k"},
		warm:      4, measured: []int{0},
		plans: residualPlans,
	},
	{
		name:      "recursive-explosion",
		clients:   1,
		why:       "full part explosions down and up a reconvergent DAG on 1 connection: the fixpoint executor and re-reached sub-assemblies dominate",
		templates: []string{"down", "up", "group"},
		warm:      3, measured: []int{0},
		plans: explosionPlans,
	},
	{
		name:      "commit-mix",
		clients:   2,
		why:       "reads on 1 connection while a second commits durable transactions: shows what WAL, MVCC chains, vacuum and checkpoints cost a reader",
		durable:   true,
		templates: commitTemplates,
		warm:      20, measured: []int{1},
		plans: commitMixPlans,
	},
	{
		name:      "commit-mix-writer",
		clients:   2,
		why:       "the same mix seen from the committing connection: durable BEGIN-to-COMMIT latency and rate, each commit read back",
		durable:   true,
		templates: commitTemplates,
		warm:      20, measured: []int{0},
		plans: commitMixPlans,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// lookups builds a pool of statements, in the given order, whose single
// qualifying root the generator knows: text(i) is the statement sent,
// oracleText(i) the SELECT it stands for, root(i) the root.
func lookups(o *oracle, order []int, text, oracleText func(i int) string, root func(i int) model.AtomID) ([]stmt, error) {
	pool := make([]stmt, 0, len(order))
	for _, i := range order {
		ans, err := o.expect(oracleText(i), []model.AtomID{root(i)})
		if err != nil {
			return nil, err
		}
		pool = append(pool, stmt{text: text(i), want: want{kind: wantSet, ans: ans}})
	}
	return pool, nil
}

// scans builds one statement per text, answered by the full naive path.
func scans(o *oracle, kind wantKind, texts ...string) ([]stmt, error) {
	pool := make([]stmt, 0, len(texts))
	for _, text := range texts {
		ans, err := o.expect(text, nil)
		if err != nil {
			return nil, err
		}
		pool = append(pool, stmt{text: text, want: want{kind: kind, ans: ans}, scan: true})
	}
	return pool, nil
}

func codeLookups(s *shop, o *oracle, rng *rand.Rand) ([]stmt, error) {
	text := func(i int) string {
		return fmt.Sprintf("SELECT ALL FROM %s WHERE asm.code = '%s'", structAsm, s.code[i])
	}
	return lookups(o, rng.Perm(len(s.asm)), text, text, func(i int) model.AtomID { return s.asm[i] })
}

func serialLookups(s *shop, o *oracle, rng *rand.Rand) ([]stmt, error) {
	// One serial per assembly, never its first: that one may be a flag
	// shared by many assemblies.
	pick := make([]int, len(s.asm))
	for i := range pick {
		pick[i] = 1 + rng.Intn(len(s.serials[i])-1)
	}
	text := func(i int) string {
		return fmt.Sprintf("SELECT ALL FROM %s WHERE part.serial = '%s'", structAsm, s.serials[i][pick[i]])
	}
	return lookups(o, rng.Perm(len(s.asm)), text, text, func(i int) model.AtomID { return s.asm[i] })
}

func pointLookupPlans(s *shop, o *oracle, rng *rand.Rand) ([]connPlan, error) {
	byCode, err := codeLookups(s, o, rng)
	if err != nil {
		return nil, err
	}
	bySerial, err := serialLookups(s, o, rng)
	if err != nil {
		return nil, err
	}
	const shape = "SELECT ALL FROM job-(machine, tool) WHERE machine.site = %s AND tool.grade = %s"
	g := s.sc.grid
	execute, err := lookups(o, rng.Perm(g*g),
		func(i int) string { return fmt.Sprintf("EXECUTE shop (%d, %d)", i%g, i/g) },
		func(i int) string { return fmt.Sprintf(shape, fmt.Sprint(i%g), fmt.Sprint(i/g)) },
		func(i int) model.AtomID { return s.job[i] })
	if err != nil {
		return nil, err
	}
	w := s.sc.bomWidth
	explodeText := func(i int) string {
		return fmt.Sprintf("SELECT ALL FROM RECURSIVE parts VIA composition DEPTH 4 WHERE pn = %d", s.pn[i/w][i%w])
	}
	explode, err := lookups(o, rng.Perm(w*s.sc.bomLevels), explodeText, explodeText,
		func(i int) model.AtomID { return s.parts[i/w][i%w] })
	if err != nil {
		return nil, err
	}
	ordered, err := scans(o, wantSequence,
		"SELECT ALL FROM "+structAsm+" ORDER BY code DESC LIMIT 8",
		"SELECT ALL FROM "+structAsm+" ORDER BY code LIMIT 8")
	if err != nil {
		return nil, err
	}
	for i := range ordered {
		ordered[i].scan = false // the ordered index walk stops after LIMIT roots
	}
	init := []string{"PREPARE shop AS " + fmt.Sprintf(shape, "?", "?")}
	// The ad-hoc pools hold 16 times the plan cache's 256 entries, so the
	// parse → compile path runs; the prepared shape fits the cache.
	weights := []int{10, 10, 8, 3, 1}
	var plans []connPlan
	for c := 0; c < 2; c++ {
		plans = append(plans, newConnPlan(init, weights, []func(int) stmt{
			fromPool(byCode, c*len(byCode)/2), fromPool(bySerial, c*len(bySerial)/2),
			fromPool(execute, c*len(execute)/2), fromPool(explode, c*len(explode)/2),
			fromPool(ordered, c)}))
	}
	return plans, nil
}

func bulkScanPlans(s *shop, o *oracle, _ *rand.Rand) ([]connPlan, error) {
	pool, err := scans(o, wantSet,
		"SELECT ALL FROM "+structAsm,
		"SELECT asm(code), unit, part(serial) FROM "+structAsm,
		"SELECT ALL FROM unit-part",
		"SELECT ALL FROM job-(machine, tool, step)")
	if err != nil {
		return nil, err
	}
	return []connPlan{singles(pool, []int{1, 1, 1, 1})}, nil
}

// singles is the plan of one connection whose template t is pools[t].
func singles(pool []stmt, weights []int) connPlan {
	gen := make([]func(int) stmt, len(pool))
	for t := range pool {
		gen[t] = fromPool(pool[t:t+1], 0)
	}
	return newConnPlan(nil, weights, gen)
}

func residualPlans(s *shop, o *oracle, rng *rand.Rand) ([]connPlan, error) {
	someSerial := func() string {
		i := rng.Intn(len(s.asm))
		return s.serials[i][1+rng.Intn(len(s.serials[i])-1)]
	}
	var chainTexts, groupTexts []string
	for f := 0; f < flagClasses; f++ {
		chainTexts = append(chainTexts, fmt.Sprintf(
			"SELECT ALL FROM %s WHERE %s'%s' AND (part.serial = '%s' OR COUNT(part) < 0)",
			structAsm, chainHead, someSerial(), flagSerial(f)))
	}
	for i := 0; i < 4; i++ {
		groupTexts = append(groupTexts, fmt.Sprintf(
			"SELECT COUNT FROM %s WHERE %s'%s' GROUP BY bay", structAsm, chainHead, someSerial()))
	}
	chain, err := scans(o, wantSet, chainTexts...)
	if err != nil {
		return nil, err
	}
	group, err := scans(o, wantSet, groupTexts...)
	if err != nil {
		return nil, err
	}
	topk, err := scans(o, wantSequence,
		"SELECT ALL FROM "+structAsm+" WHERE COUNT(part) >= COUNT(unit) ORDER BY rank LIMIT 8",
		"SELECT ALL FROM "+structAsm+" WHERE COUNT(part) >= COUNT(unit) ORDER BY rank DESC LIMIT 8")
	if err != nil {
		return nil, err
	}
	for i := range topk {
		topk[i].scan = false // the top-K bound cuts roots before derivation
	}
	return []connPlan{newConnPlan(nil, []int{2, 1, 1}, []func(int) stmt{
		fromPool(chain, 0), fromPool(group, 0), fromPool(topk, 0)})}, nil
}

func explosionPlans(s *shop, o *oracle, _ *rand.Rand) ([]connPlan, error) {
	pool, err := scans(o, wantSet,
		"SELECT ALL FROM RECURSIVE parts VIA composition DEPTH 4",
		"SELECT ALL FROM RECURSIVE parts VIA composition UP DEPTH 4",
		"SELECT COUNT FROM RECURSIVE parts VIA composition DEPTH 4 GROUP BY cat")
	if err != nil {
		return nil, err
	}
	return []connPlan{singles(pool, []int{1, 1, 1})}, nil
}

var commitTemplates = []string{"commit", "read-back", "by-code", "by-serial", "count"}

// commitMixPlans: connection 0 commits transactions back to back and
// reads each one back; connection 1 reads the preloaded molecules, which
// no transaction touches, and counts the units, which every transaction
// adds two of.
func commitMixPlans(s *shop, o *oracle, rng *rand.Rand) ([]connPlan, error) {
	commit := func(i int) stmt {
		t := &txnSpec{code: fmt.Sprintf("W%d", i), bay: int64(i % bays), n: int64(i), depot: depotName(i % depots)}
		return stmt{
			text: fmt.Sprintf("BEGIN; INSERT INTO asm VALUES ('%s', %d, %d); INSERT INTO unit VALUES (0); "+
				"INSERT INTO unit VALUES (1); UPDATE depot SET stock = %d WHERE name = '%s'; COMMIT",
				t.code, t.bay, t.n, t.n, t.depot),
			want: want{kind: wantContains, contains: []byte("committed 4 mutation(s)")},
			txn:  t,
		}
	}
	readBack := func(i int) stmt {
		return stmt{
			text: fmt.Sprintf("SELECT ALL FROM %s WHERE asm.code = 'W%d'", structAsm, i),
			want: want{kind: wantContains, n: 1, contains: []byte(fmt.Sprintf("code=\"W%d\"", i))},
		}
	}
	byCode, err := codeLookups(s, o, rng)
	if err != nil {
		return nil, err
	}
	bySerial, err := serialLookups(s, o, rng)
	if err != nil {
		return nil, err
	}
	// The stream outlives this database (it is rebuilt for every set-up),
	// so the closure keeps the number, not the shop.
	preloaded := len(s.asm) * s.sc.unitsPer
	count := func(int) stmt {
		return stmt{text: "SELECT COUNT FROM unit", want: want{kind: wantEven, n: preloaded}}
	}
	// A template with no slot in a connection's rotation needs no generator.
	return []connPlan{
		newConnPlan(nil, []int{1, 1, 0, 0, 0}, []func(int) stmt{commit, readBack, nil, nil, nil}),
		newConnPlan(nil, []int{0, 0, 7, 7, 2}, []func(int) stmt{nil, nil, fromPool(byCode, 0), fromPool(bySerial, 0), count}),
	}, nil
}
