package plan

import (
	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/storage"
)

// Cache keeps the four names benchmark/, their only caller, still calls
// of the deleted plan cache: CompileOrdered just compiles, Counters reads
// zero and Release does nothing. ROADMAP item 1(e) deletes this file.
type Cache struct{ db *storage.Database }

func CacheFor(db *storage.Database) *Cache  { return &Cache{db} }
func Release(*storage.Database)             {}
func (c *Cache) Counters() (h, m, n uint64) { return 0, 0, 0 }
func (c *Cache) CompileOrdered(d *core.Desc, w expr.Expr, o *OrderBy) (*Plan, bool, error) {
	p, err := CompileOrdered(c.db, d, w, o)
	return p, false, err
}
