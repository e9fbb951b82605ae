package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/plan"
	"mad/internal/storage"
)

// This file is the layer adapter: the one place where the traced pass
// calls into the engine's layers, through public functions only, to time
// each from outside. README.md lists the symbols. It avoids everything
// ROADMAP items 2 and 3 mark for deletion, so those changes need not
// touch the benchmark. A statement the adapter cannot take apart from
// outside — recursive, EXECUTE, an ungrouped COUNT, a write transaction's
// script — is one mql.exec span.

// layerProbe executes statements in process against the instance's
// database, one at a time.
type layerProbe struct {
	db     *storage.Database
	sess   *mql.Session
	cache  *plan.Cache
	tr     *tracer
	depots map[string]model.AtomID // depot row by name, for replayed transactions

	// work the spans are divided by
	stmts, rendered, derived, evaluated, commits int
}

func newLayerProbe(db *storage.Database, init []string) (*layerProbe, error) {
	p := &layerProbe{db: db, sess: mql.NewSession(db), cache: plan.CacheFor(db), tr: newTracer(),
		depots: make(map[string]model.AtomID)}
	for _, text := range init {
		if _, err := p.sess.Exec(text); err != nil {
			return nil, err
		}
	}
	if _, ok := db.Container("depot"); ok {
		err := db.ScanAtoms("depot", func(a model.Atom) bool {
			name, _ := a.Get(0).AsString()
			p.depots[name] = a.ID
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// whole runs a request the way a server connection does, without the
// wire: parse the script, execute each statement on the session, render
// each result. It is the in-process time that the loopback latency is
// compared with.
func (p *layerProbe) whole(text string) (string, error) {
	stmts, err := mql.ParseScript(text)
	if err != nil {
		return "", err
	}
	return p.execute(stmts)
}

func (p *layerProbe) execute(stmts []mql.Stmt) (string, error) {
	var out strings.Builder
	for _, st := range stmts {
		cur, err := p.sess.ExecuteStream(context.Background(), st)
		if err != nil {
			return "", err
		}
		if sel, ok := st.(*mql.SelectStmt); ok && cur.Streaming() && sel.From.Recursive == nil {
			// Molecule by molecule, as the server streams them.
			n := 0
			var m *core.Molecule
			for m, err = cur.Next(); m != nil && err == nil; m, err = cur.Next() {
				n++
				out.WriteString(mql.RenderMoleculeAt(p.db, cur.SnapshotTS(), n, m, cur.Attrs()))
			}
			fmt.Fprintf(&out, "%d molecule(s) of %s\n", n, cur.Desc())
			cur.Close()
			if err != nil {
				return "", err
			}
			continue
		}
		// Everything else, recursive closures included, is materialized.
		r, err := cur.Result()
		cur.Close()
		if err != nil {
			return "", err
		}
		out.WriteString(r.Render(p.db))
	}
	return out.String(), nil
}

// separable reports whether the request is one SELECT the adapter can
// plan, execute and render itself: not recursive, and not an ungrouped
// COUNT (which the session answers without a stream).
func separable(stmts []mql.Stmt) (*mql.SelectStmt, bool) {
	if len(stmts) != 1 {
		return nil, false
	}
	sel, ok := stmts[0].(*mql.SelectStmt)
	if !ok || sel.From.Recursive != nil || sel.From.Struct == nil || (sel.Count && sel.GroupBy == nil) {
		return nil, false
	}
	return sel, true
}

// traced runs statement k layer by layer, a span around each call, and
// returns what a server would have rendered for it ("" for a grouped
// count, whose fold the adapter leaves out). Every statement records
// every span, empty where the layer has nothing to do for it, so a
// layer's time is comparable across workloads.
func (p *layerProbe) traced(k int, st stmt) (string, error) {
	p.stmts++
	root := p.tr.begin("stmt", -1, k)
	out, sel, desc, mols, err := p.layers(root, k, st)
	p.tr.end(root)
	if err != nil {
		return "", err
	}
	return out, p.probe(k, st, sel, desc, mols)
}

// layers is the body of traced's statement span. sel is nil when the
// statement is not separable.
func (p *layerProbe) layers(root, k int, st stmt) (string, *mql.SelectStmt, *core.Desc, core.MoleculeSet, error) {
	tr := p.tr

	sp := tr.begin("mql.parse", root, k)
	stmts, err := mql.ParseScript(st.text)
	tr.end(sp)
	if err != nil {
		return "", nil, nil, nil, err
	}
	sel, plain := separable(stmts)

	var (
		desc *core.Desc
		pl   *plan.Plan
	)
	sp = tr.begin("plan.compile", root, k)
	if plain {
		if desc, err = mql.BuildDesc(p.db, sel.From.Struct); err == nil && sel.Where != nil {
			err = expr.Check(sel.Where, core.Scope{DB: p.db, Desc: desc})
		}
		if err == nil {
			var order *plan.OrderBy
			if sel.OrderBy != nil {
				order = &plan.OrderBy{Attr: sel.OrderBy.Attr, Desc: sel.OrderBy.Desc}
			}
			if pl, _, err = p.cache.CompileOrdered(desc, sel.Where, order); err == nil && !sel.Count {
				pl.Limit = sel.Limit // on a grouped count LIMIT caps the groups
			}
		}
	}
	tr.end(sp)
	if err != nil {
		return "", nil, nil, nil, err
	}

	var (
		mols   core.MoleculeSet
		stream *plan.Stream
	)
	sp = tr.begin("plan.exec", root, k)
	if plain {
		if stream, err = pl.Stream(context.Background()); err == nil {
			var m *core.Molecule
			for m, err = stream.Next(); m != nil && err == nil; m, err = stream.Next() {
				mols = append(mols, m)
			}
		}
	}
	tr.end(sp)
	if stream != nil {
		defer stream.Close()
	}
	if err != nil {
		return "", nil, nil, nil, err
	}

	var out strings.Builder
	sp = tr.begin("mql.render", root, k)
	if plain && !sel.Count {
		attrs := make(map[string][]string)
		for _, it := range sel.Items {
			if it.Attrs != nil {
				attrs[it.Type] = it.Attrs
			}
		}
		for i, m := range mols {
			out.WriteString(mql.RenderMoleculeAt(p.db, stream.SnapshotTS(), i+1, m, attrs))
		}
		fmt.Fprintf(&out, "%d molecule(s) of %s\n", len(mols), desc)
		p.rendered += len(mols)
	}
	tr.end(sp)

	sp = tr.begin("storage.commit", root, k)
	if st.txn != nil {
		err = p.replay(st.txn, sp, k)
	}
	tr.end(sp)
	if err != nil {
		return "", nil, nil, nil, err
	}

	sp = tr.begin("mql.exec", root, k)
	if !plain && st.txn == nil {
		var text string
		text, err = p.execute(stmts)
		out.WriteString(text)
	}
	tr.end(sp)
	if !plain {
		sel = nil
	}
	return out.String(), sel, desc, mols, err
}

// replay performs a commit-mix transaction through the storage API, so
// that Txn.Commit is timed alone: buffering the writes is a child span of
// the commit span and so leaves its self time.
func (p *layerProbe) replay(t *txnSpec, parent, k int) error {
	sp := p.tr.begin("storage.buffer", parent, k)
	tx := p.db.Begin()
	_, err := tx.InsertAtom("asm", model.Str(t.code), model.Int(t.bay), model.Int(t.n))
	for u := int64(0); u < 2 && err == nil; u++ {
		_, err = tx.InsertAtom("unit", model.Int(u))
	}
	if err == nil {
		err = tx.UpdateAtom("depot", p.depots[t.depot], []model.Value{model.Str(t.depot), model.Int(t.n)})
	}
	p.tr.end(sp)
	if err != nil {
		tx.Rollback()
		return err
	}
	p.commits++
	return tx.Commit()
}

// probe repeats, outside the statement's span, the two pieces of its
// execution that cannot be seen from outside the plan: deriving the
// molecules it examined (every root of the structure for a scan, else
// the roots it returned) and judging each with its predicate. sel is nil
// for a statement that is not separable: its spans stay empty.
func (p *layerProbe) probe(k int, st stmt, sel *mql.SelectStmt, desc *core.Desc, mols core.MoleculeSet) error {
	var (
		dv    *core.Deriver
		roots []model.AtomID
		where expr.Expr
		err   error
	)
	if sel != nil {
		if dv, err = core.NewDeriver(p.db, desc); err != nil {
			return err
		}
		where = sel.Where
		roots = mols.Roots()
		if st.scan {
			roots = dv.RootIDs()
		}
	}
	top := p.tr.begin("probe", -1, k)
	defer p.tr.end(top)
	var examined core.MoleculeSet
	sp := p.tr.begin("core.derive", top, k)
	if sel != nil {
		examined, err = dv.DeriveRoots(roots)
	}
	p.tr.end(sp)
	if err != nil {
		return err
	}
	p.derived += len(examined)
	sp = p.tr.begin("expr.eval", top, k)
	for _, m := range examined {
		if _, err = expr.EvalPredicate(where, core.Binding{DB: p.db, M: m}); err != nil {
			break
		}
	}
	p.tr.end(sp)
	p.evaluated += len(examined)
	return err
}

// counters is a reading of every count the engine exposes.
type counters struct {
	stats            storage.StatsSnapshot
	hits, misses     uint64
	appends, syncs   int64
	checkpoints      int64
	mallocs, alloced uint64
}

func (p *layerProbe) read() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{stats: p.db.Stats().Snapshot(), checkpoints: p.db.AutoCheckpoints(),
		mallocs: ms.Mallocs, alloced: ms.TotalAlloc}
	c.hits, c.misses, _ = p.cache.Counters()
	c.appends, c.syncs = p.db.WALCounters()
	return c
}

// runTraced is the traced pass of one workload: it sets the system up
// once, then sends three consecutive stretches of the first measured
// connection's statement stream, one statement at a time — over the
// loopback, in process as a whole, and in process layer by layer. The
// second stretch gives the counts (with one client they repeat exactly),
// the third the spans; the first less the second is what the wire costs.
func runTraced(cfg config) (*report, error) {
	w := cfg.workload
	if err := w.fits(); err != nil {
		return nil, err
	}
	in, err := open(cfg, 0)
	if err != nil {
		return nil, err
	}
	defer in.discard()
	plans, err := w.plans(in.shop, newOracle(in.shop.db), rand.New(rand.NewSource(cfg.seed+1)))
	if err != nil {
		return nil, err
	}
	c := w.measured[0]
	p := plans[c]
	// Only the traced connection runs: one client, nothing beside it.
	if err := in.connect(w, plans[c:c+1]); err != nil {
		return nil, err
	}
	rep := &report{workload: w.name, seed: cfg.seed, metrics: make(map[string]float64)}
	var res connResult
	k := w.warm * len(p.rotation)

	// Stretch 1: the loopback, for a fifth of the time.
	var wire time.Duration
	var chunks, bytes, n int
	for start := time.Now(); time.Since(start).Seconds() < cfg.seconds/5; {
		for range p.rotation {
			s := in.exchange(in.clients[0], p.at(k), &res)
			wire += s.total
			chunks += s.chunks
			bytes += s.bytes
			k++
			n++
		}
	}

	// Stretch 2: the same number of statements in process, whole.
	probe, err := newLayerProbe(in.shop.db, p.init)
	if err != nil {
		return nil, err
	}
	var whole time.Duration
	var molecules, commits int
	var walBytes, userBytes int64
	before := probe.read()
	for i := 0; i < n; i++ {
		st := p.at(k)
		live := in.shop.db.LiveWALBytes()
		start := time.Now()
		out, err := probe.whole(st.text)
		whole += time.Since(start)
		m := 0
		if err == nil {
			m, err = st.want.check([]byte(out))
		}
		if err != nil {
			res.fail(st, err)
		}
		molecules += m
		if st.txn != nil {
			commits++
			// A checkpoint between the two readings restarts the live log:
			// what is left of it is then all this transaction's.
			if d := in.shop.db.LiveWALBytes() - live; d > 0 {
				walBytes += d
			} else {
				walBytes += in.shop.db.LiveWALBytes()
			}
			userBytes += int64(len(st.txn.code) + len(st.txn.depot) + 5*8)
		}
		k++
	}
	after := probe.read()

	// Stretch 3: the same number again, layer by layer.
	for i := 0; i < n; i++ {
		st := p.at(k)
		out, err := probe.traced(k, st)
		if err == nil && out != "" {
			_, err = st.want.check([]byte(out))
		}
		if err != nil {
			res.fail(st, err)
		}
		k++
	}
	path, err := probe.tr.write(cfg.outDir, w.name, cfg.seed)
	if err != nil {
		return nil, err
	}

	self := probe.tr.selfTimes()
	// A layer that had nothing to do (no molecule, no commit) still has its
	// empty spans' time; that is spread over the statements instead.
	us := func(d time.Duration, per int) float64 {
		if per == 0 {
			per = probe.stmts
		}
		return float64(d) / float64(time.Microsecond) / float64(per)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var stmtSpans time.Duration
	for _, s := range probe.tr.spans {
		if s.Name == "stmt" {
			stmtSpans += time.Duration(s.End - s.Start)
		}
	}
	d := after.stats.Sub(before.stats)
	m := rep.metrics
	m["server.wire_us"] = us(wire-whole, n)
	m["server.chunks_per_stmt"] = float64(chunks) / float64(n)
	m["server.bytes_per_stmt"] = float64(bytes) / float64(n)
	m["mql.parse_us"] = us(self["mql.parse"], probe.stmts)
	m["plan.compile_us"] = us(self["plan.compile"], probe.stmts)
	m["plan.cache_hit_ratio"] = ratio(float64(after.hits-before.hits), float64(after.hits-before.hits+after.misses-before.misses))
	m["plan.exec_ms"] = us(self["plan.exec"], probe.stmts) / 1000
	m["core.derive_us_per_molecule"] = us(self["core.derive"], probe.derived)
	m["expr.eval_us_per_molecule"] = us(self["expr.eval"], probe.evaluated)
	m["mql.render_us_per_molecule"] = us(self["mql.render"], probe.rendered)
	m["mql.exec_ms"] = us(whole, n) / 1000
	m["storage.atom_fetches_per_molecule"] = ratio(float64(d.AtomsFetched), float64(molecules))
	m["storage.links_per_stmt"] = float64(d.LinksTraversed) / float64(n)
	m["storage.index_lookups_per_stmt"] = float64(d.IndexLookups) / float64(n)
	m["storage.commit_us"] = us(self["storage.commit"], probe.commits)
	m["storage.appends_per_fsync"] = ratio(float64(after.appends-before.appends), float64(after.syncs-before.syncs))
	m["storage.fsyncs_per_commit"] = ratio(float64(after.syncs-before.syncs), float64(commits))
	m["storage.wal_bytes_per_user_byte"] = ratio(float64(walBytes), float64(userBytes))
	m["storage.auto_checkpoints"] = float64(after.checkpoints - before.checkpoints)
	m["allocs_per_stmt"] = float64(after.mallocs-before.mallocs) / float64(n)
	m["alloc_kb_per_stmt"] = float64(after.alloced-before.alloced) / 1024 / float64(n)
	m["trace_overhead_ratio"] = ratio(float64(stmtSpans), float64(whole))

	rep.attempted, rep.failed = 3*n, res.failed
	rep.notes = append(rep.notes, res.errs...)
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced %d statements of connection %d three times: loopback %.3f ms/stmt, in process %.3f ms/stmt, layer by layer %.3f ms/stmt",
			n, c, ms(wire)/float64(n), ms(whole)/float64(n), ms(stmtSpans)/float64(n)),
		"self time per statement, µs:"+selfTable(self, probe.stmts),
		fmt.Sprintf("probes per statement: derived %.1f molecules, judged %.1f, rendered %.1f",
			float64(probe.derived)/float64(n), float64(probe.evaluated)/float64(n), float64(probe.rendered)/float64(n)),
		"spans written to "+path)
	return rep, nil
}

// selfTable renders the per-layer self times in a fixed order.
func selfTable(self map[string]time.Duration, stmts int) string {
	var b strings.Builder
	for _, name := range []string{"stmt", "mql.parse", "plan.compile", "plan.exec", "mql.render", "mql.exec",
		"storage.commit", "storage.buffer", "core.derive", "expr.eval"} {
		fmt.Fprintf(&b, " %s %.1f", name, float64(self[name])/float64(time.Microsecond)/float64(max(stmts, 1)))
	}
	return b.String()
}
