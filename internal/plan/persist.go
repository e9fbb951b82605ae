package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mad/internal/storage"
)

// Feedback persistence: the observation store serializes to a JSON file
// beside the storage checkpoint so a restarted server plans warm — its
// residual pass rates, derivation costs and climb costs survive the
// process. Every key in the store is a deterministic string (plan keys,
// conjunct keys, structure descriptors) and every value a counter, so
// JSON round-trips the store exactly.
//
// The file records the plan epoch the observations were made under.
// LoadFeedback installs them at the *database's current* epoch: a
// recovered database rebuilt the same schema, indexes and statistics, so
// the regime is the same even though the counter value is process-local.

// feedbackFile names the persisted observations inside a database
// directory.
const feedbackFile = "feedback.json"

// persistedObs mirrors passObs for JSON.
type persistedObs struct {
	Evals     int64 `json:"evals"`
	Passed    int64 `json:"passed"`
	CostEvals int64 `json:"costEvals,omitempty"`
	Nanos     int64 `json:"nanos,omitempty"`
}

// persistedRatio mirrors ratioObs for JSON.
type persistedRatio struct {
	Sum float64 `json:"sum"`
	N   int64   `json:"n"`
}

// persistedFeedback is the on-disk image of a Feedback store.
type persistedFeedback struct {
	Version   int                                 `json:"version"`
	Epoch     uint64                              `json:"epoch"`
	Residuals map[string]map[string]*persistedObs `json:"residuals,omitempty"`
	Deriv     map[string]*persistedRatio          `json:"deriv,omitempty"`
	Climb     map[string]*persistedRatio          `json:"climb,omitempty"`
}

// persistRatios images one kind's observations.
func persistRatios(m map[string]*ratioObs) map[string]*persistedRatio {
	out := make(map[string]*persistedRatio, len(m))
	for k, o := range m {
		out[k] = &persistedRatio{Sum: o.sum, N: o.n}
	}
	return out
}

// SaveFeedback writes db's feedback observations into dir (atomically:
// temp file + rename). A database with no registered feedback store is a
// no-op — there is nothing to warm a restart with.
func SaveFeedback(db *storage.Database, dir string) error {
	fb := feedbackLookup(db)
	if fb == nil {
		return nil
	}
	fb.mu.Lock()
	fb.syncEpochLocked()
	img := persistedFeedback{
		Version:   1,
		Epoch:     fb.epoch,
		Residuals: make(map[string]map[string]*persistedObs, len(fb.residuals)),
		Deriv:     persistRatios(fb.ratios[ratioDeriv]),
		Climb:     persistRatios(fb.ratios[ratioClimb]),
	}
	for pk, obs := range fb.residuals {
		m := make(map[string]*persistedObs, len(obs))
		for ck, o := range obs {
			m[ck] = &persistedObs{Evals: o.evals, Passed: o.passed, CostEvals: o.costEvals, Nanos: o.nanos}
		}
		img.Residuals[pk] = m
	}
	fb.mu.Unlock()

	data, err := json.Marshal(&img)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, feedbackFile), data)
}

// writeFileAtomic replaces path with data so that a crash leaves either
// the old file or the new one: temp file, fsync, rename.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadFeedback installs persisted observations from dir into db's
// feedback store (creating and registering it). A missing file is not an
// error — the server simply starts with cold feedback; a corrupt file
// is, so silent statistics loss cannot masquerade as a cold start.
func LoadFeedback(db *storage.Database, dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, feedbackFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var img persistedFeedback
	if err := json.Unmarshal(data, &img); err != nil {
		return fmt.Errorf("plan: corrupt feedback file: %w", err)
	}
	if img.Version != 1 {
		return fmt.Errorf("plan: unsupported feedback file version %d", img.Version)
	}
	fb := FeedbackFor(db)
	fb.mu.Lock()
	defer fb.mu.Unlock()
	fb.residuals = make(map[string]map[string]*passObs, len(img.Residuals))
	for pk, obs := range img.Residuals {
		m := make(map[string]*passObs, len(obs))
		for ck, o := range obs {
			m[ck] = &passObs{evals: o.Evals, passed: o.Passed, costEvals: o.CostEvals, nanos: o.Nanos}
		}
		fb.residuals[pk] = m
	}
	for kind, m := range map[ratioKind]map[string]*persistedRatio{ratioDeriv: img.Deriv, ratioClimb: img.Climb} {
		clear(fb.ratios[kind])
		for k, o := range m {
			fb.ratios[kind][k] = &ratioObs{sum: o.Sum, n: o.N}
		}
	}
	// The recovered database rebuilt the same statistics regime the
	// observations were made under; pin them to its current epoch so the
	// first query reads them instead of discarding them as stale.
	fb.epoch = db.PlanEpoch()
	return nil
}
