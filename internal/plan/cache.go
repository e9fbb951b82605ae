package plan

import (
	"container/list"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/storage"
)

// cacheLimit bounds a cache's entry count; the least recently used entry
// is evicted first, so hot named-molecule plans survive ad-hoc structure
// churn. Named molecule types are few — the bound exists only to keep
// the churn from growing the cache without end.
const cacheLimit = 256

// Cache memoizes compiled plans per database, keyed by the structure
// description and the predicate rendering. Entries carry the database's
// plan epoch at compile time; a lookup whose epoch no longer matches
// (index DDL, schema DDL or ANALYZE happened since) recompiles, so a
// cached plan never outlives the statistics and access paths it was
// costed against. Get hands out clones: concurrent sessions each execute
// their own copy while sharing the compile work.
type Cache struct {
	mu      sync.Mutex
	db      *storage.Database
	entries map[string]*list.Element
	lru     *list.List // cacheEntry values, most recently used at front

	hits, misses, compiles uint64
}

type cacheEntry struct {
	key   string
	epoch uint64
	plan  *Plan
	// label is the human-readable identity SHOW CACHE lists the entry
	// under; shaped marks entries keyed on a PREPARE'd statement shape
	// (placeholder-canonicalized predicate) rather than literal text.
	label  string
	shaped bool
	// hits is the per-entry counter SHOW CACHE exposes; createdAt dates
	// the entry's first compilation for the age column.
	hits      uint64
	createdAt time.Time
}

// caches is the per-database cache registry behind CacheFor.
var (
	cachesMu sync.Mutex
	caches   = make(map[*storage.Database]*Cache)
)

// CacheFor returns the plan cache shared by every session over db,
// creating it on first use.
func CacheFor(db *storage.Database) *Cache {
	cachesMu.Lock()
	defer cachesMu.Unlock()
	c, ok := caches[db]
	if !ok {
		c = &Cache{db: db, entries: make(map[string]*list.Element), lru: list.New()}
		caches[db] = c
	}
	return c
}

// Release drops the database's cache from the registry. Call it when a
// database goes out of use — the registry otherwise pins the cache and
// the database for the life of the process. A later CacheFor on the same
// database simply starts cold.
func Release(db *storage.Database) {
	cachesMu.Lock()
	defer cachesMu.Unlock()
	delete(caches, db)
}

// cacheKey identifies a plan: the structure rendering (memoized by Desc)
// plus a canonical predicate encoding. Both are canonical for plan
// purposes — two descs rendering alike derive identically, and the
// planner only inspects predicate structure. The predicate encoding is
// hand-rolled because it runs on every statement: expr.String's
// fmt-based rendering would cost more than the compile it saves.
func cacheKey(desc *core.Desc, pred expr.Expr, order *OrderBy) string {
	if pred == nil && order == nil {
		return desc.String()
	}
	var b strings.Builder
	b.Grow(len(desc.String()) + 64)
	b.WriteString(desc.String())
	if pred != nil {
		b.WriteByte(0)
		appendExprKey(&b, pred)
	}
	if order != nil {
		// \x04 cannot open a predicate encoding, so ordered and
		// unordered keys over the same predicate never collide.
		b.WriteByte(4)
		if order.Desc {
			b.WriteByte('v')
		} else {
			b.WriteByte('^')
		}
		b.WriteString(order.Attr)
	}
	return b.String()
}

// appendExprKey writes a canonical, collision-free encoding of e: every
// node is tagged, fields are separated by unprintable bytes that cannot
// occur inside identifiers.
func appendExprKey(b *strings.Builder, e expr.Expr) {
	switch n := e.(type) {
	case expr.Const:
		b.WriteByte('c')
		b.WriteString(n.V.String())
	case expr.Attr:
		b.WriteByte('a')
		b.WriteString(n.Type)
		b.WriteByte(1)
		b.WriteString(n.Name)
	case expr.Cmp:
		b.WriteByte('=')
		b.WriteByte(byte(n.Op))
		appendExprKey(b, n.L)
		b.WriteByte(2)
		appendExprKey(b, n.R)
	case expr.And:
		b.WriteByte('&')
		appendExprKey(b, n.L)
		b.WriteByte(2)
		appendExprKey(b, n.R)
	case expr.Or:
		b.WriteByte('|')
		appendExprKey(b, n.L)
		b.WriteByte(2)
		appendExprKey(b, n.R)
	case expr.Not:
		b.WriteByte('!')
		appendExprKey(b, n.E)
	case expr.Arith:
		b.WriteByte('+')
		b.WriteByte(byte(n.Op))
		appendExprKey(b, n.L)
		b.WriteByte(2)
		appendExprKey(b, n.R)
	case expr.Exists:
		b.WriteByte('e')
		b.WriteString(n.Type)
	case expr.CountOf:
		b.WriteByte('#')
		b.WriteString(n.Type)
	case expr.All:
		b.WriteByte('A')
		b.WriteByte(byte(n.Op))
		appendExprKey(b, n.Attr)
		b.WriteByte(2)
		appendExprKey(b, n.R)
	case expr.Func:
		b.WriteByte('f')
		b.WriteString(n.Name)
		b.WriteByte(1)
		b.WriteString(strconv.Itoa(len(n.Args)))
		for _, a := range n.Args {
			b.WriteByte(2)
			appendExprKey(b, a)
		}
	default:
		// Unknown node kinds fall back to the rendered form.
		b.WriteByte('?')
		b.WriteString(e.String())
	}
	b.WriteByte(3)
}

// Compile returns a plan for deriving desc under pred, reusing the cached
// compilation when the database's plan epoch still matches; cached
// reports whether recompilation was skipped. The returned plan is always
// a private clone with fresh actuals — callers Execute it freely.
func (c *Cache) Compile(desc *core.Desc, pred expr.Expr) (p *Plan, cached bool, err error) {
	return c.CompileOrdered(desc, pred, nil)
}

// CompileOrdered is Compile with an ORDER BY on a root attribute; the
// order is part of the cache identity, so ordered and unordered plans
// over the same predicate are memoized independently.
func (c *Cache) CompileOrdered(desc *core.Desc, pred expr.Expr, order *OrderBy) (p *Plan, cached bool, err error) {
	return c.compileAt(desc, pred, order, cacheKey(desc, pred, order), false)
}

// ShapeKey returns the cache identity of a statement shape: the canonical
// structure+predicate+order encoding with the placeholder sentinels still
// in place, so every EXECUTE of a PREPARE'd statement maps to the same
// entry regardless of the literals bound.
func ShapeKey(desc *core.Desc, pred expr.Expr, order *OrderBy) string {
	return cacheKey(desc, pred, order)
}

// CompileShaped compiles pred (a fully bound predicate — placeholders
// already substituted) under a statement-shape key instead of the literal
// key: a hit clones the cached compilation and rebinds its literals by
// conjunct ordinal, so repeated point queries through PREPARE/EXECUTE
// stop recompiling on literal text. A shape whose rebinding metadata does
// not line up (the entry predates this shape's conjunct layout) falls
// back to a fresh compile, stored under the same shape key.
func (c *Cache) CompileShaped(desc *core.Desc, pred expr.Expr, order *OrderBy, shapeKey string) (p *Plan, cached bool, err error) {
	return c.compileAt(desc, pred, order, shapeKey, true)
}

// compileAt is the shared hit/miss machinery behind CompileOrdered and
// CompileShaped: key is the cache identity, shaped selects literal
// rebinding on a hit.
func (c *Cache) compileAt(desc *core.Desc, pred expr.Expr, order *OrderBy, key string, shaped bool) (p *Plan, cached bool, err error) {
	epoch := c.db.PlanEpoch()

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		if e.epoch == epoch {
			q := e.plan.clone()
			if !shaped || q.rebind(pred) {
				e.hits++
				c.hits++
				c.lru.MoveToFront(el) // LRU: a hit renews the entry
				c.mu.Unlock()
				return q, true, nil
			}
			// Rebinding metadata mismatch: recompile below.
		}
	}
	c.misses++
	c.mu.Unlock()

	// Compile outside the cache lock: compilation reads the database and
	// may be slow; worst case two sessions race and both store equivalent
	// plans.
	fresh, err := compile(c.db, desc, pred, order, "")
	if err != nil {
		return nil, false, err
	}

	c.mu.Lock()
	c.compiles++
	if el, exists := c.entries[key]; exists {
		e := el.Value.(*cacheEntry)
		e.epoch, e.plan = epoch, fresh
		c.lru.MoveToFront(el)
	} else {
		if c.lru.Len() >= cacheLimit {
			// Evict the least recently used entry.
			back := c.lru.Back()
			delete(c.entries, back.Value.(*cacheEntry).key)
			c.lru.Remove(back)
		}
		c.entries[key] = c.lru.PushFront(&cacheEntry{
			key: key, epoch: epoch, plan: fresh,
			label: entryLabel(desc, pred, order), shaped: shaped,
			createdAt: time.Now(),
		})
	}
	p = fresh.clone()
	c.mu.Unlock()
	return p, false, nil
}

// entryLabel renders the human-readable identity SHOW CACHE lists a
// cache entry under. Shaped entries show the literals of the compile that
// populated them — later EXECUTEs rebind without touching the label.
func entryLabel(desc *core.Desc, pred expr.Expr, order *OrderBy) string {
	var b strings.Builder
	if desc.Closure() != nil {
		b.WriteString(desc.String()) // the root alone would hide the recursion shape
	} else {
		b.WriteString(desc.Root())
	}
	if pred != nil {
		fmt.Fprintf(&b, " WHERE %s", pred)
	}
	if order != nil {
		dir := "ASC"
		if order.Desc {
			dir = "DESC"
		}
		fmt.Fprintf(&b, " ORDER BY %s %s", order.Attr, dir)
	}
	return b.String()
}

// rebind retargets a shape-cached plan clone at a freshly bound
// predicate: every pushdown, residual and root-filter conjunct and the
// access path's literals are replayed from the new predicate's conjuncts
// by the ordinals the compile recorded. The shape key guarantees the
// conjunct layout matches; rebind reports false (caller recompiles) if
// the metadata nevertheless fails to line up.
func (p *Plan) rebind(newPred expr.Expr) bool {
	conjs := splitConjuncts(newPred)
	at := func(ord int) (expr.Expr, bool) {
		if ord < 0 || ord >= len(conjs) {
			return nil, false
		}
		return conjs[ord], true
	}
	for i := range p.Pushdowns {
		c, ok := at(p.Pushdowns[i].ord)
		if !ok {
			return false
		}
		p.Pushdowns[i].Conjunct = c
	}
	if len(p.Residuals) > 0 {
		ords := make([]int, 0, len(p.Residuals))
		for i := range p.Residuals {
			c, ok := at(p.Residuals[i].ord)
			if !ok {
				return false
			}
			p.Residuals[i].Conjunct = c
			ords = append(ords, p.Residuals[i].ord)
		}
		// Residuals are cost-ordered; rebuild the source-order conjunction.
		sort.Ints(ords)
		p.Residual = nil
		for _, o := range ords {
			p.Residual = combine(p.Residual, conjs[o])
		}
	}
	p.Access.Filter = nil
	for _, o := range p.filterOrds {
		c, ok := at(o)
		if !ok {
			return false
		}
		p.Access.Filter = combine(p.Access.Filter, c)
	}
	if !p.path.rebind(p, at) {
		return false
	}
	p.pred = newPred
	return true
}

// Counters reports cache traffic: lookups served from cache, lookups
// that missed (cold or invalidated), and plans actually compiled — the
// compile-count probe tests and experiments assert against.
func (c *Cache) Counters() (hits, misses, compiles uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.compiles
}

// Render prints the cache's aggregate traffic and every entry with its
// per-entry counters, most recently used first — the SHOW CACHE output.
func (c *Cache) Render() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "plan cache: %d entr%s — %d hit(s), %d miss(es), %d compile(s)\n",
		len(c.entries), plural(len(c.entries), "y", "ies"), c.hits, c.misses, c.compiles)
	now := time.Now()
	i := 0
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		i++
		line := fmt.Sprintf("%3d. %s — hits %d, age %s",
			i, e.label, e.hits, now.Sub(e.createdAt).Round(time.Second))
		if e.shaped {
			line += " [shape]"
		}
		b.WriteString(line + "\n")
	}
	return b.String()
}

// plural picks the singular or plural suffix for n.
func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// Len returns the number of cached plans.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// clone copies the plan with private pushdown and residual slices and
// zeroed actuals, so executions of the same cached compilation never
// share mutable state. The Alternatives and UpPath slices stay shared —
// they are compile-time provenance and never mutated after compilation.
func (p *Plan) clone() *Plan {
	q := *p
	q.Pushdowns = append([]Pushdown(nil), p.Pushdowns...)
	q.Residuals = append([]ResidualConjunct(nil), p.Residuals...)
	q.Access.Entries = append([]AccessEntry(nil), p.Access.Entries...)
	if p.Order != nil {
		o := *p.Order
		q.Order = &o
	}
	q.resetActuals()
	return &q
}
