package storage

import (
	"fmt"
	"sort"

	"mad/internal/model"
	"mad/internal/storage/stats"
)

// attrHist binds a histogram to the attribute position it summarizes so
// the mutation paths can route values without a description lookup.
type attrHist struct {
	typeName string
	attr     string
	pos      int
	h        *stats.Histogram
}

// PlanEpoch returns the database's plan epoch: a counter bumped by every
// change that can invalidate a compiled plan — schema DDL, index creation
// or removal, and ANALYZE (new statistics mean new estimates). The plan
// cache compares a cached plan's epoch against this value and recompiles
// on mismatch.
func (db *Database) PlanEpoch() uint64 { return db.planEpoch.Load() }

// bumpPlanEpoch invalidates all cached plans for this database.
func (db *Database) bumpPlanEpoch() { db.planEpoch.Add(1) }

// Analyze builds equi-depth histograms over every attribute of the named
// atom types (all types when none are given), replacing any previous
// histograms, and bumps the plan epoch so cached plans recompile against
// the fresh statistics. It returns the number of histograms built.
func (db *Database) Analyze(typeNames ...string) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if len(typeNames) == 0 {
		for _, at := range db.schema.AtomTypes() {
			typeNames = append(typeNames, at.Name)
		}
		sort.Strings(typeNames)
	}
	// Resolve every name before installing anything: a failed Analyze
	// must not leave new histograms behind without the epoch bump that
	// invalidates the plans costed against the old ones.
	containers := make([]*Container, len(typeNames))
	for i, name := range typeNames {
		c, ok := db.containers[name]
		if !ok || !db.visible(name, nil) {
			return 0, fmt.Errorf("storage: unknown atom type %q", name)
		}
		containers[i] = c
	}
	built := 0
	for i, name := range typeNames {
		built += db.analyzeLocked(name, containers[i])
	}
	db.bumpPlanEpoch()
	return built, nil
}

// analyzeLocked rebuilds the histograms of one atom type; callers hold
// db.mu (the container scan resolves the latest published commit, so a
// concurrent writer at most leaves the histogram one commit stale — it is
// advisory, not versioned) and bump the plan epoch themselves.
func (db *Database) analyzeLocked(name string, c *Container) int {
	desc := c.Desc()
	// One pass over the occurrence gathers every attribute column.
	cols := make([][]model.Value, desc.Len())
	for pos := range cols {
		cols[pos] = make([]model.Value, 0, c.Len())
	}
	c.Scan(func(a model.Atom) bool {
		for pos := range cols {
			cols[pos] = append(cols[pos], a.Get(pos))
		}
		return true
	})
	built := 0
	for pos, vals := range cols {
		attr := desc.Attr(pos).Name
		db.hists[indexKey(name, attr)] = &attrHist{
			typeName: name,
			attr:     attr,
			pos:      pos,
			h:        stats.Build(vals, stats.DefaultBuckets),
		}
		built++
	}
	return built
}

// restoreHist is applyOp's arm for a histogram a state file carries: the
// state comes from the file, the attribute's position from the type's
// description.
func (db *Database) restoreHist(typeName string, d *walDef) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	_, pos, err := db.attrOf(typeName, d.attr)
	if err != nil {
		return err
	}
	db.hists[indexKey(typeName, d.attr)] = &attrHist{typeName: typeName, attr: d.attr, pos: pos, h: stats.FromState(*d.hist)}
	return nil
}

// DefaultAutoAnalyzeFraction is the drift threshold installed on new
// databases: a type's histograms rebuild once any of them has absorbed
// incremental mutations exceeding this fraction of the values it
// accounts for.
const DefaultAutoAnalyzeFraction = 0.2

// autoAnalyzeMinDrift keeps tiny occurrences from rebuilding on every
// mutation: auto-ANALYZE never fires below this absolute drift.
const autoAnalyzeMinDrift = 8

// SetAutoAnalyze configures the drift fraction that triggers an automatic
// histogram rebuild after a mutation; frac <= 0 disables auto-ANALYZE
// entirely (statistics then only change under a manual Analyze).
func (db *Database) SetAutoAnalyze(frac float64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.autoAnalyzeFrac = frac
}

// maybeAutoAnalyze rebuilds the named type's histograms when any of them
// has drifted past the configured fraction of its occurrence, bumping the
// plan epoch so stale plans recompile against the fresh statistics —
// ANALYZE-on-drift instead of ANALYZE-on-request. Callers hold commitMu
// (the epoch therefore keys off committed state, never an in-flight
// buffer) and have already routed the triggering mutation into the
// histograms; db.mu is taken here for the registry reads and the rebuild.
func (db *Database) maybeAutoAnalyze(typeName string) {
	db.mu.RLock()
	frac := db.autoAnalyzeFrac
	hists := db.histsOf(typeName)
	db.mu.RUnlock()
	if frac <= 0 {
		return
	}
	trigger := false
	for _, ah := range hists {
		drift := ah.h.Drift()
		if drift < autoAnalyzeMinDrift {
			continue
		}
		occ := ah.h.Total() + ah.h.Nulls()
		if float64(drift) > frac*float64(occ) {
			trigger = true
			break
		}
	}
	if !trigger {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	c, ok := db.containers[typeName]
	if !ok {
		return
	}
	db.analyzeLocked(typeName, c)
	db.bumpPlanEpoch()
	db.stats.AutoAnalyzes.Add(1)
}

// maybeLinkEpochBump bumps the plan epoch once a link occurrence has
// drifted past the auto-analyze fraction since the last bump it caused:
// the planner costs traversals (derivation work, interior-index climbs)
// from the store's fan statistics, so link churn goes stale the same way
// value drift does for histograms. Sharing the auto-analyze fraction
// keeps one staleness policy; frac <= 0 disables this too. The epochBase
// read-modify-write runs under db.mu: since the WAL refactor, commit
// bookkeeping runs outside commitMu, so concurrent committers can reach
// here at once.
func (db *Database) maybeLinkEpochBump(ls *LinkStore) {
	db.mu.RLock()
	frac := db.autoAnalyzeFrac
	db.mu.RUnlock()
	if frac <= 0 {
		return
	}
	count := ls.Len()
	db.mu.Lock()
	defer db.mu.Unlock()
	drift := count - ls.epochBase
	if drift < 0 {
		drift = -drift
	}
	if drift < autoAnalyzeMinDrift {
		return
	}
	if float64(drift) > frac*float64(ls.epochBase) {
		ls.epochBase = count
		db.bumpPlanEpoch()
	}
}

// Histogram returns the histogram over typeName.attr built by the most
// recent Analyze, maintained incrementally since. ok=false when the
// attribute has never been analyzed.
func (db *Database) Histogram(typeName, attr string) (*stats.Histogram, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ah, ok := db.hists[indexKey(typeName, attr)]
	if !ok {
		return nil, false
	}
	return ah.h, true
}

// Histograms lists the analyzed attributes as "type.attr" strings, sorted.
func (db *Database) Histograms() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.hists))
	for k := range db.hists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// histsOf returns the histograms covering the named atom type; callers
// hold db.mu.
func (db *Database) histsOf(typeName string) []*attrHist {
	var out []*attrHist
	for _, ah := range db.hists {
		if ah.typeName == typeName {
			out = append(out, ah)
		}
	}
	return out
}

// histInsert routes a stored atom's values into the type's histograms.
// Histograms are internally synchronized; only the registry read needs
// db.mu.
func (db *Database) histInsert(typeName string, a model.Atom) {
	db.mu.RLock()
	hists := db.histsOf(typeName)
	db.mu.RUnlock()
	for _, ah := range hists {
		ah.h.Insert(a.Get(ah.pos))
	}
}

// histDelete removes a dropped atom's values from the type's histograms.
func (db *Database) histDelete(typeName string, a model.Atom) {
	db.mu.RLock()
	hists := db.histsOf(typeName)
	db.mu.RUnlock()
	for _, ah := range hists {
		ah.h.Delete(a.Get(ah.pos))
	}
}
