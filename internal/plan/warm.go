package plan

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"mad/internal/core"
	"mad/internal/expr"
	"mad/internal/model"
	"mad/internal/storage"
)

// Plan-cache warmth: alongside the feedback observations, a checkpoint
// persists the *shapes* of the cached plans — structure, predicate,
// order — as a small JSON file. On Open the shapes precompile through
// the plan cache, so a restarted server answers its first queries off
// warm plans costed against the freshly loaded feedback instead of
// paying a cold compile per statement. Only what is needed to replay
// the compile is saved; the compiled plans themselves are rebuilt, so
// they always reflect the recovered database's statistics and indexes.
//
// Shape-keyed (PREPARE'd) entries are skipped: their cache identity is
// the placeholder-canonicalized predicate, which the next PREPARE
// recreates anyway, and persisting one binding's literals under the
// shape key would warm the wrong plan.

// planCacheFile names the persisted plan shapes inside a database
// directory.
const planCacheFile = "plancache.json"

// persistedValue is a model.Value image for JSON.
type persistedValue struct {
	Kind string  `json:"kind"` // "null" "bool" "int" "float" "string" "id"
	B    bool    `json:"b,omitempty"`
	I    int64   `json:"i,omitempty"`
	F    float64 `json:"f,omitempty"`
	S    string  `json:"s,omitempty"`
}

func encodeValue(v model.Value) *persistedValue {
	switch v.Kind() {
	case model.KBool:
		b, _ := v.AsBool()
		return &persistedValue{Kind: "bool", B: b}
	case model.KInt:
		i, _ := v.AsInt()
		return &persistedValue{Kind: "int", I: i}
	case model.KFloat:
		f, _ := v.AsFloat()
		return &persistedValue{Kind: "float", F: f}
	case model.KString:
		s, _ := v.AsString()
		return &persistedValue{Kind: "string", S: s}
	case model.KID:
		id, _ := v.AsID()
		return &persistedValue{Kind: "id", I: int64(id)}
	default:
		return &persistedValue{Kind: "null"}
	}
}

func (p *persistedValue) decode() (model.Value, error) {
	switch p.Kind {
	case "null":
		return model.Null(), nil
	case "bool":
		return model.Bool(p.B), nil
	case "int":
		return model.Int(p.I), nil
	case "float":
		return model.Float(p.F), nil
	case "string":
		return model.Str(p.S), nil
	case "id":
		return model.ID(model.AtomID(p.I)), nil
	default:
		return model.Null(), fmt.Errorf("plan: unknown persisted value kind %q", p.Kind)
	}
}

// persistedExpr is one qualification-formula node for JSON. Node selects
// the expr type; the other fields are populated per node kind.
type persistedExpr struct {
	Node string           `json:"node"`
	Op   uint8            `json:"op,omitempty"`
	Type string           `json:"type,omitempty"`
	Name string           `json:"name,omitempty"`
	V    *persistedValue  `json:"v,omitempty"`
	L    *persistedExpr   `json:"l,omitempty"`
	R    *persistedExpr   `json:"r,omitempty"`
	Args []*persistedExpr `json:"args,omitempty"`
}

// encodeExpr images e for JSON; ok is false on a node kind the codec
// does not know (the whole entry is then skipped rather than persisted
// lossily).
func encodeExpr(e expr.Expr) (*persistedExpr, bool) {
	if e == nil {
		return nil, true
	}
	switch n := e.(type) {
	case expr.Const:
		return &persistedExpr{Node: "const", V: encodeValue(n.V)}, true
	case expr.Attr:
		return &persistedExpr{Node: "attr", Type: n.Type, Name: n.Name}, true
	case expr.Cmp:
		l, ok1 := encodeExpr(n.L)
		r, ok2 := encodeExpr(n.R)
		return &persistedExpr{Node: "cmp", Op: uint8(n.Op), L: l, R: r}, ok1 && ok2
	case expr.And:
		l, ok1 := encodeExpr(n.L)
		r, ok2 := encodeExpr(n.R)
		return &persistedExpr{Node: "and", L: l, R: r}, ok1 && ok2
	case expr.Or:
		l, ok1 := encodeExpr(n.L)
		r, ok2 := encodeExpr(n.R)
		return &persistedExpr{Node: "or", L: l, R: r}, ok1 && ok2
	case expr.Not:
		l, ok := encodeExpr(n.E)
		return &persistedExpr{Node: "not", L: l}, ok
	case expr.Arith:
		l, ok1 := encodeExpr(n.L)
		r, ok2 := encodeExpr(n.R)
		return &persistedExpr{Node: "arith", Op: uint8(n.Op), L: l, R: r}, ok1 && ok2
	case expr.Exists:
		return &persistedExpr{Node: "exists", Type: n.Type}, true
	case expr.CountOf:
		return &persistedExpr{Node: "countof", Type: n.Type}, true
	case expr.All:
		r, ok := encodeExpr(n.R)
		return &persistedExpr{Node: "all", Op: uint8(n.Op), Type: n.Attr.Type, Name: n.Attr.Name, R: r}, ok
	case expr.Func:
		out := &persistedExpr{Node: "func", Name: n.Name}
		for _, a := range n.Args {
			pa, ok := encodeExpr(a)
			if !ok {
				return nil, false
			}
			out.Args = append(out.Args, pa)
		}
		return out, true
	default:
		return nil, false
	}
}

func (p *persistedExpr) decode() (expr.Expr, error) {
	if p == nil {
		return nil, nil
	}
	dec2 := func() (expr.Expr, expr.Expr, error) {
		l, err := p.L.decode()
		if err != nil {
			return nil, nil, err
		}
		r, err := p.R.decode()
		return l, r, err
	}
	switch p.Node {
	case "const":
		if p.V == nil {
			return nil, fmt.Errorf("plan: persisted const without value")
		}
		v, err := p.V.decode()
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case "attr":
		return expr.Attr{Type: p.Type, Name: p.Name}, nil
	case "cmp":
		l, r, err := dec2()
		if err != nil {
			return nil, err
		}
		return expr.Cmp{Op: expr.CmpOp(p.Op), L: l, R: r}, nil
	case "and":
		l, r, err := dec2()
		if err != nil {
			return nil, err
		}
		return expr.And{L: l, R: r}, nil
	case "or":
		l, r, err := dec2()
		if err != nil {
			return nil, err
		}
		return expr.Or{L: l, R: r}, nil
	case "not":
		l, err := p.L.decode()
		if err != nil {
			return nil, err
		}
		return expr.Not{E: l}, nil
	case "arith":
		l, r, err := dec2()
		if err != nil {
			return nil, err
		}
		return expr.Arith{Op: expr.ArithOp(p.Op), L: l, R: r}, nil
	case "exists":
		return expr.Exists{Type: p.Type}, nil
	case "countof":
		return expr.CountOf{Type: p.Type}, nil
	case "all":
		r, err := p.R.decode()
		if err != nil {
			return nil, err
		}
		return expr.All{Attr: expr.Attr{Type: p.Type, Name: p.Name}, Op: expr.CmpOp(p.Op), R: r}, nil
	case "func":
		out := expr.Func{Name: p.Name, Args: make([]expr.Expr, len(p.Args))}
		for i, a := range p.Args {
			e, err := a.decode()
			if err != nil {
				return nil, err
			}
			out.Args[i] = e
		}
		return out, nil
	default:
		return nil, fmt.Errorf("plan: unknown persisted expr node %q", p.Node)
	}
}

// persistedEdge mirrors core.DirectedLink for JSON.
type persistedEdge struct {
	Link string `json:"link"`
	From string `json:"from"`
	To   string `json:"to"`
}

// persistedShape is everything needed to replay one cached compile.
type persistedShape struct {
	Types []string        `json:"types"`
	Edges []persistedEdge `json:"edges,omitempty"`
	Pred  *persistedExpr  `json:"pred,omitempty"`
	Order *OrderBy        `json:"order,omitempty"`
}

// persistedCache is the on-disk image of a plan cache's shapes.
type persistedCache struct {
	Version int              `json:"version"`
	Shapes  []persistedShape `json:"shapes,omitempty"`
}

// SaveCacheShapes writes the shapes of db's cached plans into dir
// (atomically: temp file + rename), most recently used first. A database
// with no cache — or a cache holding only shape-keyed entries — writes
// an empty image, so a stale file never warms plans the cache has since
// evicted.
func SaveCacheShapes(db *storage.Database, dir string) error {
	c := cacheLookup(db)
	if c == nil {
		return nil
	}
	img := persistedCache{Version: 1}
	c.mu.Lock()
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		if e.shaped {
			continue
		}
		p := e.plan
		pred, ok := encodeExpr(p.pred)
		if !ok {
			continue
		}
		shape := persistedShape{Types: p.desc.Types(), Pred: pred}
		for _, dl := range p.desc.Edges() {
			shape.Edges = append(shape.Edges, persistedEdge{Link: dl.Link, From: dl.From, To: dl.To})
		}
		if p.Order != nil {
			o := *p.Order
			shape.Order = &o
		}
		img.Shapes = append(img.Shapes, shape)
	}
	c.mu.Unlock()

	data, err := json.Marshal(&img)
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dir, planCacheFile), data)
}

// WarmCache precompiles the plan shapes persisted in dir into db's plan
// cache (creating it). A missing file is not an error — the cache simply
// starts cold; a corrupt file is, mirroring LoadFeedback. A shape that no
// longer compiles (the schema moved underneath it) is skipped: warmth is
// an optimization, not a correctness property. Returns how many plans
// were warmed.
func WarmCache(db *storage.Database, dir string) (int, error) {
	data, err := os.ReadFile(filepath.Join(dir, planCacheFile))
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var img persistedCache
	if err := json.Unmarshal(data, &img); err != nil {
		return 0, fmt.Errorf("plan: corrupt plan-cache file: %w", err)
	}
	if img.Version != 1 {
		return 0, fmt.Errorf("plan: unsupported plan-cache file version %d", img.Version)
	}
	c := CacheFor(db)
	warmed := 0
	// The file lists entries most recently used first; compile in reverse
	// so the hottest shape ends up at the front of the warmed LRU.
	for i := len(img.Shapes) - 1; i >= 0; i-- {
		s := img.Shapes[i]
		edges := make([]core.DirectedLink, len(s.Edges))
		for j, e := range s.Edges {
			edges[j] = core.DirectedLink{Link: e.Link, From: e.From, To: e.To}
		}
		desc, err := core.NewDesc(db, s.Types, edges)
		if err != nil {
			continue
		}
		pred, err := s.Pred.decode()
		if err != nil {
			continue
		}
		if _, _, err := c.CompileOrdered(desc, pred, s.Order); err != nil {
			continue
		}
		warmed++
	}
	return warmed, nil
}
