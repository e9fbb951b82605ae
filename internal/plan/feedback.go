package plan

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mad/internal/expr"
	"mad/internal/storage"
)

// Feedback is the per-database execution-feedback store: it closes the
// loop between the cost model's estimates and what executions actually
// observed. Four kinds of actuals are recorded:
//
//   - per cached plan, the observed *molecule-level* pass rate of every
//     residual conjunct (ResidualConjunct.Passed/Evals). Histograms only
//     know atom-level selectivities, and a molecule holds many atoms of a
//     type, so the per-molecule pass rate of an existential comparison is
//     systematically higher than the atom fraction — the observed rate
//     replaces the guess on subsequent compiles and executions, and the
//     residual chain re-ranks around it (EXPLAIN provenance [observed]);
//   - per cached plan, the observed *wall-clock evaluation cost* of
//     every residual conjunct (ns/eval, from ResidualConjunct.Nanos).
//     Once every conjunct of a chain carries one, ranking switches from
//     the static conjCost shape score to the measured cost (EXPLAIN
//     provenance [observed-cost]);
//   - per structure, the atoms actually fetched per root entering
//     derivation — calibrating derivCostPerRoot, the constant that
//     weights every access-path contest;
//   - per structure and interior entry type, the links actually climbed
//     per entry atom — calibrating the climb weight of interior-index
//     alternatives, which the model otherwise derives from fan statistics
//     by fiat.
//
// The store is epoch-aware: every read and write first compares the
// database's plan epoch against the epoch the observations were recorded
// at, and discards them all on mismatch. ANALYZE, schema or index DDL and
// auto-ANALYZE-on-drift therefore reset stale feedback exactly as they
// invalidate cached plans — observations never outlive the statistics
// regime they were made under. The store lives in memory only, owned by
// the database's plan Cache; a reopened database relearns it.
type Feedback struct {
	mu sync.Mutex
	// cache owns the store; drift marks its entries stale.
	cache *Cache
	epoch uint64
	// residuals: plan key → conjunct key → accumulated evals/passed.
	residuals map[string]map[string]*passObs
	// ratios holds the work-per-unit observations, one map per kind.
	ratios [numRatioKinds]map[string]*ratioObs
	// access: plan key → what the executed plan's chosen access path
	// actually returned (entry atoms, candidate roots). Keyed per cache
	// entry — the literals are part of the key, so the observation is an
	// exact replay of the same access, not an estimate. A recompile of
	// that entry overrides the matching candidate's cardinalities with
	// these figures, which is what lets the contest flip.
	access map[string]*accessObs

	records, resets, drifts uint64
}

// driftFactor: a plan whose observed cardinalities diverge from the
// compile-time estimate by more than this ratio (either direction)
// triggers a targeted recompile of just its cache entry.
const driftFactor = 4.0

// accessObs records what one cache entry's chosen access path actually
// did: the path's identity (to match the candidate on recompile), and
// the averaged entry-atom and candidate-root counts.
type accessObs struct {
	id      string
	entries ratioObs
	roots   ratioObs
}

// accessSnapshot is the lock-free copy accessObserved hands the contest.
type accessSnapshot struct {
	id      string
	entries float64
	roots   float64
}

// feedbackLimit bounds the number of plans with residual observations,
// mirroring the plan cache's entry bound for the same ad-hoc churn.
const feedbackLimit = cacheLimit

// passObs accumulates molecule-level evaluations of one residual
// conjunct: the pass-rate sample (evals/passed, only from executions
// where the conjunct saw every derived molecule) and the wall-clock
// cost sample (costEvals/nanos, from every execution that evaluated the
// conjunct at all — cost per evaluation is not biased by short-circuit
// position the way the pass rate is).
type passObs struct {
	evals, passed    int64
	costEvals, nanos int64
}

// ratioObs accumulates a work-per-unit observation (atoms per root, links
// per entry) over executions.
type ratioObs struct {
	sum float64
	n   int64
}

func (r *ratioObs) avg() float64 { return r.sum / float64(r.n) }

// ratioKind names one family of work-per-unit observations.
type ratioKind int

const (
	// ratioDeriv: desc key → observed atoms fetched per root derived.
	ratioDeriv ratioKind = iota
	// ratioClimb: climbKey → observed links climbed per entry atom.
	ratioClimb
	// ratioTopK: desc key → observed fraction of roots surviving the
	// top-K heap's bound prune (reaching derivation) on bounded ordered
	// runs.
	ratioTopK
	numRatioKinds
)

// climbKey files a climb observation under the structure and the
// interior entry type the climb started from.
func climbKey(descKey, entryType string) string { return descKey + "\x00" + entryType }

func newFeedback(c *Cache) *Feedback {
	fb := &Feedback{
		cache:     c,
		epoch:     c.db.PlanEpoch(),
		residuals: make(map[string]map[string]*passObs),
		access:    make(map[string]*accessObs),
	}
	for k := range fb.ratios {
		fb.ratios[k] = make(map[string]*ratioObs)
	}
	return fb
}

// Drifts reports how many executions detected feedback drift beyond the
// factor and requested a targeted recompile of their cache entry.
func (fb *Feedback) Drifts() uint64 {
	if fb == nil {
		return 0
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.drifts
}

// syncEpochLocked drops every observation recorded under an older plan
// epoch; callers hold fb.mu.
func (fb *Feedback) syncEpochLocked() {
	epoch := fb.cache.db.PlanEpoch()
	if epoch == fb.epoch {
		return
	}
	if fb.clearLocked() {
		fb.resets++
	}
}

// clearLocked discards every observation, re-stamps the store with the
// current plan epoch and reports whether there was anything to discard.
func (fb *Feedback) clearLocked() bool {
	had := len(fb.residuals) > 0 || len(fb.access) > 0
	clear(fb.residuals)
	clear(fb.access)
	for _, m := range fb.ratios {
		had = had || len(m) > 0
		clear(m)
	}
	fb.epoch = fb.cache.db.PlanEpoch()
	return had
}

// Counters reports feedback traffic: executions recorded and epoch-driven
// resets (ANALYZE/DDL invalidating the observations).
func (fb *Feedback) Counters() (records, resets uint64) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.records, fb.resets
}

// Len returns the number of plans with recorded residual observations.
func (fb *Feedback) Len() int {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.syncEpochLocked()
	return len(fb.residuals)
}

// conjKey canonically encodes one residual conjunct for the observation
// map — the same encoding the plan cache keys predicates with.
func conjKey(c expr.Expr) string {
	var b strings.Builder
	appendExprKey(&b, c)
	return b.String()
}

// record folds an executed plan's actuals into the store: residual pass
// rates under the plan's key, derivation work under the structure's key,
// climb work under the structure + entry type, and the chosen access
// path's observed cardinalities under the plan's key. Called by Execute
// after a successful run; executions of plans compiled under an older
// epoch are discarded rather than recorded — their pass rates and work
// figures belong to the statistics regime ANALYZE/DDL just replaced.
//
// When the observed cardinalities diverge from the compile-time
// estimates beyond the drift factor, just this plan's cache entry is
// marked stale — the next fetch recompiles it against the recorded
// observations and the contest can flip the access path, with no
// epoch-wide cache flush and no feedback reset.
func (fb *Feedback) record(p *Plan, work storage.WorkTally) {
	if fb == nil {
		return
	}
	if fb.recordLocked(p, work) {
		// The drift-triggered staleness mark runs outside fb.mu: the
		// cache's entry lock nests the other way on the compile path.
		fb.cache.markStale(p.key)
	}
}

// recordLocked does record's bookkeeping under fb.mu and reports whether
// the execution drifted far enough from its estimates to request a
// targeted recompile of its cache entry.
func (fb *Feedback) recordLocked(p *Plan, work storage.WorkTally) (drifted bool) {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.syncEpochLocked()
	if p.epoch != fb.epoch {
		return false
	}
	fb.records++
	if len(p.Residuals) > 0 && p.Derived > 0 {
		obs := fb.residuals[p.key]
		if obs == nil {
			// Bound the store like the plan cache bounds compilations: a
			// long-running process executing endless distinct ad-hoc
			// predicates must not grow fb.residuals without limit between
			// epoch bumps. Eviction is random-replacement (Go's map
			// iteration order) — observations are cheap to relearn, so
			// LRU machinery is not worth carrying here.
			if len(fb.residuals) >= feedbackLimit {
				for k := range fb.residuals {
					delete(fb.residuals, k)
					break
				}
			}
			obs = make(map[string]*passObs)
			fb.residuals[p.key] = obs
		}
		for i := range p.Residuals {
			r := &p.Residuals[i]
			if r.Evals <= 0 {
				continue
			}
			o := obs[r.key]
			if o == nil {
				o = &passObs{}
				obs[r.key] = o
			}
			// The wall-clock cost sample folds in from every execution
			// that evaluated the conjunct: cost per evaluation is a
			// property of the conjunct's shape and the molecule sizes,
			// not of which molecules survived the earlier conjuncts.
			if r.Nanos > 0 {
				o.costEvals += int64(r.Evals)
				o.nanos += r.Nanos
			}
			// The pass rate stores only unconditional samples: a conjunct
			// behind a short-circuit cut saw just the earlier conjuncts'
			// survivors, and folding that conditional rate into the store
			// would let correlated conjuncts lock in or oscillate a wrong
			// order (two mutually exclusive 50% conjuncts would drive
			// each other's "selectivity" to zero). Evals == Derived means
			// the conjunct was evaluated on every derived molecule, so
			// the measured rate is its true molecule-level selectivity.
			if r.Evals != p.Derived {
				continue
			}
			o.evals += int64(r.Evals)
			o.passed += int64(r.Passed)
		}
	}
	// The per-root derivation figure is keyed by structure so every
	// predicate over it benefits — but that is only sound when every
	// root derived in full. A pushdown hook that cut molecules makes
	// the measured atoms/root predicate-specific (a selective prune
	// would teach the contest that derivation is near-free), so such
	// executions do not contribute; the top-K bound prune biases the
	// figure the same way, so bounded ordered runs are excluded too.
	cut := 0
	for i := range p.Pushdowns {
		cut += p.Pushdowns[i].Cut
	}
	if p.Access.ActRoots > 0 && work.AtomsFetched > 0 && cut == 0 && p.OrderCut == 0 {
		fb.addRatioLocked(ratioDeriv, p.desc.String(), float64(work.AtomsFetched)/float64(p.Access.ActRoots))
	}
	if p.Access.EntryType != "" && p.Access.ActEntries > 0 && p.Access.ActClimb > 0 {
		fb.addRatioLocked(ratioClimb, climbKey(p.desc.String(), p.Access.EntryType),
			float64(p.Access.ActClimb)/float64(p.Access.ActEntries))
	}
	// Bound-prune survival: what fraction of the root batch a bounded
	// ordered run actually derived. Keyed by structure — the fraction
	// mostly reflects K against the batch size and the key distribution,
	// and it is what lets the contest prefer the heap path (cheap when
	// survival is tiny) over an index ride on later compiles.
	if p.OrderPath == OrderTopK && p.Access.ActRoots > 0 {
		fb.addRatioLocked(ratioTopK, p.desc.String(), float64(p.Access.ActRoots-p.OrderCut)/float64(p.Access.ActRoots))
	}
	// Access-path observation + drift detection, for the paths whose
	// cardinalities are genuinely estimated (a full or ordered scan's
	// batch size is the container itself — nothing to calibrate).
	if p.accessID == "" || p.key == "" {
		return false
	}
	o := fb.access[p.key]
	if o == nil {
		if len(fb.access) >= feedbackLimit {
			for k := range fb.access {
				delete(fb.access, k)
				break
			}
		}
		o = &accessObs{}
		fb.access[p.key] = o
	}
	o.id = p.accessID
	o.entries.sum += float64(p.Access.ActEntries)
	o.entries.n++
	o.roots.sum += float64(p.Access.ActSurvivors)
	o.roots.n++
	// Drift: estimate vs actual beyond the factor in either direction,
	// on the entry-atom count and the post-filter root count.
	ratio := func(est, act int) float64 {
		e, a := float64(max(est, 1)), float64(max(act, 1))
		if e > a {
			return e / a
		}
		return a / e
	}
	drift := ratio(p.Access.EstRoots, p.Access.ActRoots)
	if p.Access.EstEntries > 0 {
		if r := ratio(p.Access.EstEntries, p.Access.ActEntries); r > drift {
			drift = r
		}
	}
	if drift > driftFactor {
		fb.drifts++
		return true
	}
	return false
}

// addRatioLocked folds one sample into the kind's observation under key,
// bounding the map like the residual store (random replacement); callers
// hold fb.mu.
func (fb *Feedback) addRatioLocked(kind ratioKind, key string, sample float64) {
	m := fb.ratios[kind]
	o := m[key]
	if o == nil {
		if len(m) >= feedbackLimit {
			for k := range m {
				delete(m, k)
				break
			}
		}
		o = &ratioObs{}
		m[key] = o
	}
	o.sum += sample
	o.n++
}

// observed returns the averaged observation of the kind filed under key,
// ok=false before any execution recorded one (always, on a nil store).
func (fb *Feedback) observed(kind ratioKind, key string) (float64, bool) {
	if fb == nil {
		return 0, false
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.syncEpochLocked()
	o := fb.ratios[kind][key]
	if o == nil || o.n == 0 {
		return 0, false
	}
	return o.avg(), true
}

// observeResiduals overwrites the estimated selectivity of every
// residual conjunct that has recorded observations with its observed
// molecule-level pass rate (provenance SrcObserved), fills in the
// observed per-eval cost where one was measured, and reports whether
// anything changed. Callers re-rank the chain afterwards; both Compile
// (fresh plans) and Stream/Execute (cached clones, which may predate
// the observations) go through here, so a mis-ranked chain is corrected
// by the second execution at the latest.
func (fb *Feedback) observeResiduals(p *Plan) bool {
	if fb == nil || len(p.Residuals) == 0 {
		return false
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.syncEpochLocked()
	if p.epoch != fb.epoch {
		// A plan compiled under an older statistics regime keeps its
		// compile-time order; the cache has already stopped handing it
		// out, so this only affects callers holding stale plans.
		return false
	}
	obs := fb.residuals[p.key]
	if obs == nil {
		return false
	}
	changed := false
	for i := range p.Residuals {
		r := &p.Residuals[i]
		o := obs[r.key]
		if o == nil {
			continue
		}
		if o.evals > 0 {
			r.Sel = clampSel(float64(o.passed) / float64(o.evals))
			r.Source = SrcObserved
			changed = true
		}
		if o.costEvals > 0 {
			r.ObsCost = float64(o.nanos) / float64(o.costEvals)
			if r.ObsCost < 1 {
				// Clock-resolution floor: an observed cost must stay
				// positive, or rankResiduals would fall back to the
				// static score for the whole chain.
				r.ObsCost = 1
			}
			changed = true
		}
	}
	return changed
}

// accessObserved returns what executions of this exact cache entry
// observed about the chosen access path — the zero snapshot (id "")
// before any execution recorded one. The contest overrides the matching
// candidate's cardinalities with the snapshot on recompile.
func (fb *Feedback) accessObserved(planKey string) accessSnapshot {
	if fb == nil || planKey == "" {
		return accessSnapshot{}
	}
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.syncEpochLocked()
	o := fb.access[planKey]
	if o == nil || o.roots.n == 0 {
		return accessSnapshot{}
	}
	return accessSnapshot{id: o.id, entries: o.entries.avg(), roots: o.roots.avg()}
}

// Render lists the store's observations — the SHOW FEEDBACK output.
func (fb *Feedback) Render() string {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.syncEpochLocked()
	var b strings.Builder
	fmt.Fprintf(&b, "feedback epoch %d: %d plan(s) observed, %d execution(s) recorded, %d reset(s)\n",
		fb.epoch, len(fb.residuals), fb.records, fb.resets)
	if fb.drifts > 0 {
		fmt.Fprintf(&b, "drift: %d targeted recompile(s) requested (factor %.1f) [recompiled]\n",
			fb.drifts, driftFactor)
	}
	for _, dk := range sortedKeys(fb.ratios[ratioDeriv]) {
		o := fb.ratios[ratioDeriv][dk]
		fmt.Fprintf(&b, "derive %s: ≈%.1f atoms/root over %d run(s) [observed]\n", dk, o.avg(), o.n)
	}
	for _, ck := range sortedKeys(fb.ratios[ratioClimb]) {
		o := fb.ratios[ratioClimb][ck]
		parts := strings.SplitN(ck, "\x00", 2)
		fmt.Fprintf(&b, "climb %s entry %s: ≈%.1f links/entry over %d run(s) [observed]\n",
			parts[0], parts[1], o.avg(), o.n)
	}
	for _, tk := range sortedKeys(fb.ratios[ratioTopK]) {
		o := fb.ratios[ratioTopK][tk]
		fmt.Fprintf(&b, "top-k %s: ≈%.2f of roots survive the bound over %d run(s) [observed]\n",
			tk, o.avg(), o.n)
	}
	return b.String()
}

// sortedKeys returns the map's keys in ascending order for deterministic
// rendering.
func sortedKeys(m map[string]*ratioObs) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
