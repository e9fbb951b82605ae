package mql

import (
	"fmt"
	"strconv"
	"strings"

	"mad/internal/expr"
	"mad/internal/model"
)

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	// params counts the '?' placeholders seen so far; each lexes into a
	// positional parameter sentinel bound at EXECUTE time.
	params int
	// depth counts the nesting levels open at the current token.
	depth int
}

// maxDepth bounds how deeply a statement may nest parenthesised groups,
// function arguments, NOT, unary minus and structure branch groups. The
// parser recurses once per level, so without a bound a hostile request
// of a few megabytes exhausts the goroutine stack, a fatal error no
// caller can recover from.
const maxDepth = 1000

// paramType is the sentinel attribute "type" a '?' placeholder parses
// into: the NUL byte cannot occur in an identifier, so the sentinel never
// collides with a real atom type, and the placeholder's ordinal travels
// in the attribute name.
const paramType = "\x00param"

// newParser parses the given source into a parser ready to emit
// statements.
func newParser(src string) (*parser, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

// Parse parses a single statement from source (which must contain exactly
// one statement, optionally ';'-terminated).
func Parse(src string) (Stmt, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	s, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(tSymbol, ";")
	if !p.atEOF() {
		return nil, fmt.Errorf("mql: trailing input after statement: %s", p.peek())
	}
	return s, nil
}

// ParseScript parses a ';'-separated sequence of statements.
func ParseScript(src string) ([]Stmt, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.atEOF() {
		if p.accept(tSymbol, ";") {
			continue
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.accept(tSymbol, ";") && !p.atEOF() {
			return nil, fmt.Errorf("mql: expected ';' between statements, got %s", p.peek())
		}
	}
	return out, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().Kind == tEOF }

// accept consumes the next token when it matches kind and text.
func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && t.Text == text {
		p.pos++
		return true
	}
	return false
}

// expect consumes a token or fails with a location-bearing error.
func (p *parser) expect(kind tokKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return fmt.Errorf("mql: expected %q, got %s at offset %d", text, p.peek(), p.peek().Pos)
}

// ident consumes an identifier.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != tIdent {
		return "", fmt.Errorf("mql: expected identifier, got %s at offset %d", t, t.Pos)
	}
	p.pos++
	return t.Text, nil
}

// hyphenName consumes an identifier possibly containing '-' (atom-type and
// link-type names like state-area are identifiers in the catalog but
// lex as IDENT '-' IDENT because '-' separates structure components).
func (p *parser) hyphenName() (string, error) {
	first, err := p.ident()
	if err != nil {
		return "", err
	}
	name := first
	for p.peekIs(tSymbol, "-") && p.toks[p.pos+1].Kind == tIdent {
		p.pos++ // '-'
		part, _ := p.ident()
		name += "-" + part
	}
	return name, nil
}

func (p *parser) peekIs(kind tokKind, text string) bool {
	t := p.peek()
	return t.Kind == kind && t.Text == text
}

// enter opens one nesting level below the token just consumed, failing
// past maxDepth; the caller closes it with defer p.leave().
func (p *parser) enter() error {
	if p.depth == maxDepth {
		return fmt.Errorf("mql: statement nests deeper than %d levels at offset %d", maxDepth, p.toks[p.pos-1].Pos)
	}
	p.depth++
	return nil
}

func (p *parser) leave() { p.depth-- }

// statement parses one statement.
func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.Kind != tKeyword {
		return nil, fmt.Errorf("mql: expected statement keyword, got %s at offset %d", t, t.Pos)
	}
	switch t.Text {
	case "SELECT":
		return p.selectStmt()
	case "DEFINE":
		return p.defineStmt()
	case "CREATE":
		return p.createStmt()
	case "INSERT":
		return p.insertStmt()
	case "UPDATE":
		return p.updateStmt()
	case "DELETE":
		return p.deleteStmt()
	case "CONNECT", "DISCONNECT":
		return p.connectStmt()
	case "SHOW":
		return p.showStmt()
	case "EXPLAIN":
		p.pos++
		st := &ExplainStmt{}
		if p.accept(tSymbol, "(") {
			if err := p.expect(tKeyword, "ESTIMATE"); err != nil {
				return nil, err
			}
			if err := p.expect(tSymbol, ")"); err != nil {
				return nil, err
			}
			st.EstimateOnly = true
		}
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		st.Select = sel.(*SelectStmt)
		return st, nil
	case "ANALYZE":
		return p.analyzeStmt()
	case "SET":
		return p.setStmt()
	case "PREPARE":
		return p.prepareStmt()
	case "EXECUTE":
		return p.executeStmt()
	case "BEGIN":
		p.pos++
		p.accept(tKeyword, "TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.pos++
		p.accept(tKeyword, "TRANSACTION")
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.pos++
		p.accept(tKeyword, "TRANSACTION")
		return &RollbackStmt{}, nil
	case "CHECKPOINT":
		p.pos++
		return &CheckpointStmt{}, nil
	}
	return nil, fmt.Errorf("mql: unknown statement %s at offset %d", t, t.Pos)
}

// analyzeStmt parses ANALYZE [type].
func (p *parser) analyzeStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "ANALYZE"); err != nil {
		return nil, err
	}
	st := &AnalyzeStmt{}
	if p.peek().Kind == tIdent {
		name, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		st.Type = name
	}
	return st, nil
}

// setStmt parses SET <option> [=] <literal>.
func (p *parser) setStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "SET"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.accept(tSymbol, "=")
	v, err := p.literal()
	if err != nil {
		return nil, err
	}
	return &SetStmt{Name: name, Value: v}, nil
}

// prepareStmt parses PREPARE name AS SELECT ... — the SELECT's WHERE
// clause may contain '?' placeholders, bound positionally by EXECUTE.
func (p *parser) prepareStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "PREPARE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tKeyword, "AS"); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &PrepareStmt{Name: name, Select: sel.(*SelectStmt)}, nil
}

// executeStmt parses EXECUTE name [( lit, ... )].
func (p *parser) executeStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "EXECUTE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &ExecuteStmt{Name: name}
	if p.accept(tSymbol, "(") {
		if !p.peekIs(tSymbol, ")") {
			for {
				v, err := p.literal()
				if err != nil {
					return nil, err
				}
				st.Args = append(st.Args, v)
				if !p.accept(tSymbol, ",") {
					break
				}
			}
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// selectStmt parses SELECT <ALL|COUNT|list> FROM <from> [WHERE pred]
// [GROUP BY attr] [ORDER BY attr [ASC|DESC]] [LIMIT n].
func (p *parser) selectStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.accept(tKeyword, "COUNT") {
		s.Count = true
	} else if p.accept(tKeyword, "ALL") {
		s.All = true
	} else {
		for {
			item, err := p.projItem()
			if err != nil {
				return nil, err
			}
			s.Items = append(s.Items, item)
			if !p.accept(tSymbol, ",") {
				break
			}
		}
	}
	if err := p.expect(tKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.fromClause()
	if err != nil {
		return nil, err
	}
	s.From = from
	if p.accept(tKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		s.Where = pred
	}
	if p.accept(tKeyword, "GROUP") {
		if err := p.expect(tKeyword, "BY"); err != nil {
			return nil, err
		}
		if !s.Count {
			return nil, fmt.Errorf("mql: GROUP BY requires SELECT COUNT")
		}
		typ, attr, err := p.attrRef()
		if err != nil {
			return nil, err
		}
		s.GroupBy = &GroupClause{Type: typ, Attr: attr}
	}
	if p.accept(tKeyword, "ORDER") {
		if err := p.expect(tKeyword, "BY"); err != nil {
			return nil, err
		}
		if s.Count {
			return nil, fmt.Errorf("mql: ORDER BY does not combine with SELECT COUNT")
		}
		typ, attr, err := p.attrRef()
		if err != nil {
			return nil, err
		}
		s.OrderBy = &OrderClause{Type: typ, Attr: attr}
		if p.accept(tKeyword, "DESC") {
			s.OrderBy.Desc = true
		} else {
			p.accept(tKeyword, "ASC")
		}
	}
	if p.accept(tKeyword, "LIMIT") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("mql: LIMIT must be at least 1")
		}
		s.Limit = int(n)
	}
	return s, nil
}

// attrRef parses [type '.'] attr — the optionally type-qualified root
// attribute of GROUP BY and ORDER BY.
func (p *parser) attrRef() (typ, attr string, err error) {
	name, err := p.ident()
	if err != nil {
		return "", "", err
	}
	if p.accept(tSymbol, ".") {
		attr, err := p.ident()
		if err != nil {
			return "", "", err
		}
		return name, attr, nil
	}
	return "", name, nil
}

// projItem parses one SELECT-list entry. Hyphens do not appear here; type
// names in projections are plain identifiers (projection targets are atom
// types of the structure).
func (p *parser) projItem() (ProjItem, error) {
	name, err := p.ident()
	if err != nil {
		return ProjItem{}, err
	}
	item := ProjItem{Type: name}
	if p.accept(tSymbol, ".") {
		attr, err := p.ident()
		if err != nil {
			return ProjItem{}, err
		}
		item.Attrs = []string{attr}
		return item, nil
	}
	if p.accept(tSymbol, "(") {
		for {
			attr, err := p.ident()
			if err != nil {
				return ProjItem{}, err
			}
			item.Attrs = append(item.Attrs, attr)
			if !p.accept(tSymbol, ",") {
				break
			}
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return ProjItem{}, err
		}
	}
	return item, nil
}

// fromClause parses the FROM item.
func (p *parser) fromClause() (FromClause, error) {
	if p.accept(tKeyword, "RECURSIVE") {
		rc, err := p.recursiveClause()
		if err != nil {
			return FromClause{}, err
		}
		return FromClause{Recursive: rc}, nil
	}
	// Either: name(structure) | structure | name.
	// A bare identifier followed by '(' is a named definition; followed by
	// '-' it starts a chain; otherwise it references a named molecule type
	// (or a single-type structure — the analyzer decides).
	start := p.pos
	name, err := p.ident()
	if err != nil {
		return FromClause{}, err
	}
	if p.accept(tSymbol, "(") {
		node, err := p.structure()
		if err != nil {
			return FromClause{}, err
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return FromClause{}, err
		}
		return FromClause{Name: name, Struct: node}, nil
	}
	// Rewind and parse as a structure chain.
	p.pos = start
	node, err := p.structure()
	if err != nil {
		return FromClause{}, err
	}
	if node.Children == nil {
		// Single identifier: named molecule type reference or single-type
		// structure; keep both name and structure, analyzer resolves.
		return FromClause{Name: node.Type, Struct: node}, nil
	}
	return FromClause{Struct: node}, nil
}

// recursiveClause parses RECURSIVE <type> VIA <link> [UP|DOWN] [DEPTH n].
func (p *parser) recursiveClause() (*RecursiveClause, error) {
	typ, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tKeyword, "VIA"); err != nil {
		return nil, err
	}
	link, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	rc := &RecursiveClause{Type: typ, Link: link}
	if p.accept(tKeyword, "UP") {
		rc.Up = true
	} else {
		p.accept(tKeyword, "DOWN")
	}
	if p.accept(tKeyword, "DEPTH") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		rc.Depth = int(n)
	}
	return rc, nil
}

// structure parses a chain: node ('-' (ident | '[' link ']' | group))*.
func (p *parser) structure() (*StructNode, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	root := &StructNode{Type: name}
	cur := root
	pendingLink := ""
	for p.accept(tSymbol, "-") {
		switch {
		case p.accept(tSymbol, "["):
			link, err := p.hyphenName()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tSymbol, "]"); err != nil {
				return nil, err
			}
			pendingLink = link
		case p.peekIs(tSymbol, "("):
			p.pos++ // '('
			if err := p.enter(); err != nil {
				return nil, err
			}
			defer p.leave()
			for {
				child, err := p.structure()
				if err != nil {
					return nil, err
				}
				cur.Children = append(cur.Children, StructEdge{Link: pendingLink, Node: child})
				pendingLink = ""
				if !p.accept(tSymbol, ",") {
					break
				}
			}
			if err := p.expect(tSymbol, ")"); err != nil {
				return nil, err
			}
			if p.peekIs(tSymbol, "-") {
				return nil, fmt.Errorf("mql: a chain cannot continue after a branch group (offset %d)", p.peek().Pos)
			}
			return root, nil
		default:
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			child := &StructNode{Type: name}
			cur.Children = append(cur.Children, StructEdge{Link: pendingLink, Node: child})
			pendingLink = ""
			cur = child
		}
	}
	if pendingLink != "" {
		return nil, fmt.Errorf("mql: dangling link name [%s] without target", pendingLink)
	}
	return root, nil
}

// defineStmt parses DEFINE MOLECULE TYPE name AS SELECT ...
func (p *parser) defineStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "DEFINE"); err != nil {
		return nil, err
	}
	if err := p.expect(tKeyword, "MOLECULE"); err != nil {
		return nil, err
	}
	if err := p.expect(tKeyword, "TYPE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tKeyword, "AS"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == tKeyword && (t.Text == "UNION" || t.Text == "DIFFERENCE" || t.Text == "INTERSECT") {
		p.pos++
		if err := p.expect(tKeyword, "OF"); err != nil {
			return nil, err
		}
		left, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tKeyword, "AND"); err != nil {
			return nil, err
		}
		right, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DefineStmt{Name: name, SetOp: t.Text, Left: left, Right: right}, nil
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &DefineStmt{Name: name, Select: sel.(*SelectStmt)}, nil
}

// createStmt parses the CREATE family.
func (p *parser) createStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.accept(tKeyword, "ATOM"):
		if err := p.expect(tKeyword, "TYPE"); err != nil {
			return nil, err
		}
		name, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tSymbol, "("); err != nil {
			return nil, err
		}
		var attrs []model.AttrDesc
		for {
			aname, err := p.ident()
			if err != nil {
				return nil, err
			}
			t := p.peek()
			if t.Kind != tIdent && t.Kind != tKeyword {
				return nil, fmt.Errorf("mql: expected type name after attribute %q", aname)
			}
			p.pos++
			kind, ok := model.KindFromName(t.Text)
			if !ok {
				return nil, fmt.Errorf("mql: unknown attribute type %q", t.Text)
			}
			ad := model.AttrDesc{Name: aname, Kind: kind}
			if p.accept(tKeyword, "NOT") {
				if err := p.expect(tKeyword, "NULL"); err != nil {
					return nil, err
				}
				ad.NotNull = true
			}
			attrs = append(attrs, ad)
			if !p.accept(tSymbol, ",") {
				break
			}
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateAtomTypeStmt{Name: name, Attrs: attrs}, nil

	case p.accept(tKeyword, "LINK"):
		if err := p.expect(tKeyword, "TYPE"); err != nil {
			return nil, err
		}
		name, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tKeyword, "BETWEEN"); err != nil {
			return nil, err
		}
		a, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tKeyword, "AND"); err != nil {
			return nil, err
		}
		b, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		desc := model.LinkDesc{SideA: a, SideB: b}
		if p.accept(tKeyword, "CARD") {
			ca, err := p.cardinality()
			if err != nil {
				return nil, err
			}
			if err := p.expect(tSymbol, ","); err != nil {
				return nil, err
			}
			cb, err := p.cardinality()
			if err != nil {
				return nil, err
			}
			desc.CardA, desc.CardB = ca, cb
		}
		return &CreateLinkTypeStmt{Name: name, Desc: desc}, nil

	case p.accept(tKeyword, "INDEX"):
		if err := p.expect(tKeyword, "ON"); err != nil {
			return nil, err
		}
		typ, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tSymbol, "("); err != nil {
			return nil, err
		}
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Type: typ, Attr: attr}, nil
	}
	return nil, fmt.Errorf("mql: expected ATOM, LINK or INDEX after CREATE, got %s", p.peek())
}

// cardinality parses "n:m" where each side is an integer or 'n'.
func (p *parser) cardinality() (model.Cardinality, error) {
	min, err := p.intLit()
	if err != nil {
		return model.Cardinality{}, err
	}
	if err := p.expect(tSymbol, ":"); err != nil {
		return model.Cardinality{}, err
	}
	t := p.peek()
	if t.Kind == tIdent && strings.EqualFold(t.Text, "n") {
		p.pos++
		return model.Cardinality{Min: int(min)}, nil
	}
	max, err := p.intLit()
	if err != nil {
		return model.Cardinality{}, err
	}
	return model.Cardinality{Min: int(min), Max: int(max)}, nil
}

func (p *parser) intLit() (int64, error) {
	t := p.peek()
	if t.Kind != tNumber {
		return 0, fmt.Errorf("mql: expected number, got %s", t)
	}
	p.pos++
	return strconv.ParseInt(t.Text, 10, 64)
}

// insertStmt parses INSERT INTO type [(attrs)] VALUES (lits)[, ...].
func (p *parser) insertStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if err := p.expect(tKeyword, "INTO"); err != nil {
		return nil, err
	}
	typ, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Type: typ}
	if p.accept(tSymbol, "(") {
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Attrs = append(st.Attrs, a)
			if !p.accept(tSymbol, ",") {
				break
			}
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(tKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(tSymbol, "("); err != nil {
			return nil, err
		}
		var row []model.Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.accept(tSymbol, ",") {
				break
			}
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(tSymbol, ",") {
			break
		}
	}
	return st, nil
}

// literal parses a value literal.
func (p *parser) literal() (model.Value, error) {
	t := p.peek()
	switch {
	case t.Kind == tNumber:
		p.pos++
		if strings.Contains(t.Text, ".") {
			f, err := strconv.ParseFloat(t.Text, 64)
			if err != nil {
				return model.Null(), err
			}
			return model.Float(f), nil
		}
		i, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return model.Null(), err
		}
		return model.Int(i), nil
	case t.Kind == tString:
		p.pos++
		return model.Str(t.Text), nil
	case t.Kind == tKeyword && t.Text == "TRUE":
		p.pos++
		return model.Bool(true), nil
	case t.Kind == tKeyword && t.Text == "FALSE":
		p.pos++
		return model.Bool(false), nil
	case t.Kind == tKeyword && t.Text == "NULL":
		p.pos++
		return model.Null(), nil
	case t.Kind == tSymbol && t.Text == "-":
		p.pos++
		v, err := p.literal()
		if err != nil {
			return model.Null(), err
		}
		if i, ok := v.AsInt(); ok {
			return model.Int(-i), nil
		}
		if f, ok := v.AsFloat(); ok {
			return model.Float(-f), nil
		}
		return model.Null(), fmt.Errorf("mql: '-' applies to numbers only")
	}
	return model.Null(), fmt.Errorf("mql: expected literal, got %s at offset %d", t, t.Pos)
}

// updateStmt parses UPDATE type SET a = lit [, ...] [WHERE pred].
func (p *parser) updateStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "UPDATE"); err != nil {
		return nil, err
	}
	typ, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	if err := p.expect(tKeyword, "SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Type: typ, Set: make(map[string]model.Value)}
	for {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tSymbol, "="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Set[a] = v
		st.Order = append(st.Order, a)
		if !p.accept(tSymbol, ",") {
			break
		}
	}
	if p.accept(tKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Where = pred
	}
	return st, nil
}

// deleteStmt parses DELETE FROM type [WHERE pred].
func (p *parser) deleteStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "DELETE"); err != nil {
		return nil, err
	}
	if err := p.expect(tKeyword, "FROM"); err != nil {
		return nil, err
	}
	typ, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Type: typ}
	if p.accept(tKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Where = pred
	}
	return st, nil
}

// connectStmt parses CONNECT a [WHERE p] TO b [WHERE q] VIA link, and the
// DISCONNECT variant.
func (p *parser) connectStmt() (Stmt, error) {
	remove := false
	if p.accept(tKeyword, "DISCONNECT") {
		remove = true
	} else if err := p.expect(tKeyword, "CONNECT"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &ConnectStmt{FromType: from, Remove: remove}
	if p.accept(tKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.FromWhere = pred
	}
	if err := p.expect(tKeyword, "TO"); err != nil {
		return nil, err
	}
	to, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.ToType = to
	if p.accept(tKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.ToWhere = pred
	}
	if err := p.expect(tKeyword, "VIA"); err != nil {
		return nil, err
	}
	link, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	st.Link = link
	return st, nil
}

// showStmt parses SHOW SCHEMA|TYPES|MOLECULE TYPES|INDEXES|STATS|
// HISTOGRAMS.
func (p *parser) showStmt() (Stmt, error) {
	if err := p.expect(tKeyword, "SHOW"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != tKeyword {
		return nil, fmt.Errorf("mql: expected SHOW target, got %s", t)
	}
	p.pos++
	switch t.Text {
	case "SCHEMA", "TYPES", "INDEXES", "STATS", "HISTOGRAMS":
		return &ShowStmt{What: t.Text}, nil
	case "MOLECULE", "MOLECULES":
		p.accept(tKeyword, "TYPES")
		return &ShowStmt{What: "MOLECULES"}, nil
	}
	return nil, fmt.Errorf("mql: unknown SHOW target %s", t)
}

// ---- predicate expressions ----

// orExpr := andExpr (OR andExpr)*
func (p *parser) orExpr() (expr.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = expr.Or{L: l, R: r}
	}
	return l, nil
}

// andExpr := notExpr (AND notExpr)*
func (p *parser) andExpr() (expr.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = expr.And{L: l, R: r}
	}
	return l, nil
}

// notExpr := NOT notExpr | cmpExpr
func (p *parser) notExpr() (expr.Expr, error) {
	if p.accept(tKeyword, "NOT") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return expr.Not{E: e}, nil
	}
	return p.cmpExpr()
}

var cmpOps = map[string]expr.CmpOp{
	"=": expr.EQ, "<>": expr.NE, "!=": expr.NE,
	"<": expr.LT, "<=": expr.LE, ">": expr.GT, ">=": expr.GE,
}

// cmpExpr := addExpr [cmpOp addExpr]
func (p *parser) cmpExpr() (expr.Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == tSymbol {
		if op, ok := cmpOps[t.Text]; ok {
			p.pos++
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return expr.Cmp{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

// addExpr := mulExpr (('+'|'-') mulExpr)*
func (p *parser) addExpr() (expr.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tSymbol, "+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Arith{Op: expr.Add, L: l, R: r}
		case p.accept(tSymbol, "-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Arith{Op: expr.Sub, L: l, R: r}
		default:
			return l, nil
		}
	}
}

// mulExpr := unary (('*'|'/'|'%') unary)*
func (p *parser) mulExpr() (expr.Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.ArithOp
		switch {
		case p.accept(tSymbol, "*"):
			op = expr.Mul
		case p.accept(tSymbol, "/"):
			op = expr.Div
		case p.accept(tSymbol, "%"):
			op = expr.Mod
		default:
			return l, nil
		}
		r, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		l = expr.Arith{Op: op, L: l, R: r}
	}
}

// unaryExpr := primary | '-' unaryExpr
func (p *parser) unaryExpr() (expr.Expr, error) {
	if p.accept(tSymbol, "-") {
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return expr.Arith{Op: expr.Sub, L: expr.Lit(model.Int(0)), R: e}, nil
	}
	return p.primaryExpr()
}

// primaryExpr := literal | EXISTS '(' ident ')' | COUNT '(' ident ')' |
// func '(' args ')' | ref | '(' orExpr ')'
func (p *parser) primaryExpr() (expr.Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == tNumber || t.Kind == tString ||
		(t.Kind == tKeyword && (t.Text == "TRUE" || t.Text == "FALSE" || t.Text == "NULL")):
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case t.Kind == tKeyword && t.Text == "EXISTS":
		p.pos++
		if err := p.expect(tSymbol, "("); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return nil, err
		}
		return expr.Exists{Type: typ}, nil
	case t.Kind == tKeyword && t.Text == "COUNT":
		p.pos++
		if err := p.expect(tSymbol, "("); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return nil, err
		}
		return expr.CountOf{Type: typ}, nil
	case t.Kind == tSymbol && t.Text == "?":
		p.pos++
		idx := p.params
		p.params++
		return expr.Attr{Type: paramType, Name: strconv.Itoa(idx)}, nil
	case t.Kind == tSymbol && t.Text == "(":
		p.pos++
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == tIdent:
		name, _ := p.ident()
		if p.peekIs(tSymbol, "(") {
			// function call
			p.pos++
			if err := p.enter(); err != nil {
				return nil, err
			}
			defer p.leave()
			var args []expr.Expr
			if !p.peekIs(tSymbol, ")") {
				for {
					a, err := p.orExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(tSymbol, ",") {
						break
					}
				}
			}
			if err := p.expect(tSymbol, ")"); err != nil {
				return nil, err
			}
			return expr.Func{Name: name, Args: args}, nil
		}
		if p.accept(tSymbol, ".") {
			attr, err := p.ident()
			if err != nil {
				return nil, err
			}
			return expr.Attr{Type: name, Name: attr}, nil
		}
		return expr.Attr{Name: name}, nil
	}
	return nil, fmt.Errorf("mql: expected expression, got %s at offset %d", t, t.Pos)
}
