package mql

import (
	"fmt"
	"strconv"
	"strings"

	"mad/internal/expr"
	"mad/internal/model"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
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

// NewParser parses the given source into a parser ready to emit
// statements.
func NewParser(src string) (*Parser, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	return &Parser{toks: toks}, nil
}

// Parse parses a single statement from source (which must contain exactly
// one statement, optionally ';'-terminated).
func Parse(src string) (Stmt, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	s, err := p.Statement()
	if err != nil {
		return nil, err
	}
	p.accept(TSymbol, ";")
	if !p.atEOF() {
		return nil, fmt.Errorf("mql: trailing input after statement: %s", p.peek())
	}
	return s, nil
}

// ParseScript parses a ';'-separated sequence of statements.
func ParseScript(src string) ([]Stmt, error) {
	p, err := NewParser(src)
	if err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.atEOF() {
		if p.accept(TSymbol, ";") {
			continue
		}
		s, err := p.Statement()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
		if !p.accept(TSymbol, ";") && !p.atEOF() {
			return nil, fmt.Errorf("mql: expected ';' between statements, got %s", p.peek())
		}
	}
	return out, nil
}

func (p *Parser) peek() Token { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }
func (p *Parser) atEOF() bool { return p.peek().Kind == TEOF }

// accept consumes the next token when it matches kind and text.
func (p *Parser) accept(kind TokKind, text string) bool {
	t := p.peek()
	if t.Kind == kind && t.Text == text {
		p.pos++
		return true
	}
	return false
}

// expect consumes a token or fails with a location-bearing error.
func (p *Parser) expect(kind TokKind, text string) error {
	if p.accept(kind, text) {
		return nil
	}
	return fmt.Errorf("mql: expected %q, got %s at offset %d", text, p.peek(), p.peek().Pos)
}

// ident consumes an identifier.
func (p *Parser) ident() (string, error) {
	t := p.peek()
	if t.Kind != TIdent {
		return "", fmt.Errorf("mql: expected identifier, got %s at offset %d", t, t.Pos)
	}
	p.pos++
	return t.Text, nil
}

// hyphenName consumes an identifier possibly containing '-' (atom-type and
// link-type names like state-area are identifiers in the catalog but
// lex as IDENT '-' IDENT because '-' separates structure components).
func (p *Parser) hyphenName() (string, error) {
	first, err := p.ident()
	if err != nil {
		return "", err
	}
	name := first
	for p.peekIs(TSymbol, "-") && p.toks[p.pos+1].Kind == TIdent {
		p.pos++ // '-'
		part, _ := p.ident()
		name += "-" + part
	}
	return name, nil
}

func (p *Parser) peekIs(kind TokKind, text string) bool {
	t := p.peek()
	return t.Kind == kind && t.Text == text
}

// enter opens one nesting level below the token just consumed, failing
// past maxDepth; the caller closes it with defer p.leave().
func (p *Parser) enter() error {
	if p.depth == maxDepth {
		return fmt.Errorf("mql: statement nests deeper than %d levels at offset %d", maxDepth, p.toks[p.pos-1].Pos)
	}
	p.depth++
	return nil
}

func (p *Parser) leave() { p.depth-- }

// Statement parses one statement.
func (p *Parser) Statement() (Stmt, error) {
	t := p.peek()
	if t.Kind != TKeyword {
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
		if p.accept(TSymbol, "(") {
			if err := p.expect(TKeyword, "ESTIMATE"); err != nil {
				return nil, err
			}
			if err := p.expect(TSymbol, ")"); err != nil {
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
		p.accept(TKeyword, "TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.pos++
		p.accept(TKeyword, "TRANSACTION")
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.pos++
		p.accept(TKeyword, "TRANSACTION")
		return &RollbackStmt{}, nil
	case "CHECKPOINT":
		p.pos++
		return &CheckpointStmt{}, nil
	}
	return nil, fmt.Errorf("mql: unknown statement %s at offset %d", t, t.Pos)
}

// analyzeStmt parses ANALYZE [type].
func (p *Parser) analyzeStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "ANALYZE"); err != nil {
		return nil, err
	}
	st := &AnalyzeStmt{}
	if p.peek().Kind == TIdent {
		name, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		st.Type = name
	}
	return st, nil
}

// setStmt parses SET <option> [=] <literal>.
func (p *Parser) setStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "SET"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	p.accept(TSymbol, "=")
	v, err := p.literal()
	if err != nil {
		return nil, err
	}
	return &SetStmt{Name: name, Value: v}, nil
}

// prepareStmt parses PREPARE name AS SELECT ... — the SELECT's WHERE
// clause may contain '?' placeholders, bound positionally by EXECUTE.
func (p *Parser) prepareStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "PREPARE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TKeyword, "AS"); err != nil {
		return nil, err
	}
	sel, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	return &PrepareStmt{Name: name, Select: sel.(*SelectStmt)}, nil
}

// executeStmt parses EXECUTE name [( lit, ... )].
func (p *Parser) executeStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "EXECUTE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &ExecuteStmt{Name: name}
	if p.accept(TSymbol, "(") {
		if !p.peekIs(TSymbol, ")") {
			for {
				v, err := p.literal()
				if err != nil {
					return nil, err
				}
				st.Args = append(st.Args, v)
				if !p.accept(TSymbol, ",") {
					break
				}
			}
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// selectStmt parses SELECT <ALL|COUNT|list> FROM <from> [WHERE pred]
// [GROUP BY attr] [ORDER BY attr [ASC|DESC]] [LIMIT n].
func (p *Parser) selectStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "SELECT"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	if p.accept(TKeyword, "COUNT") {
		s.Count = true
	} else if p.accept(TKeyword, "ALL") {
		s.All = true
	} else {
		for {
			item, err := p.projItem()
			if err != nil {
				return nil, err
			}
			s.Items = append(s.Items, item)
			if !p.accept(TSymbol, ",") {
				break
			}
		}
	}
	if err := p.expect(TKeyword, "FROM"); err != nil {
		return nil, err
	}
	from, err := p.fromClause()
	if err != nil {
		return nil, err
	}
	s.From = from
	if p.accept(TKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		s.Where = pred
	}
	if p.accept(TKeyword, "GROUP") {
		if err := p.expect(TKeyword, "BY"); err != nil {
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
	if p.accept(TKeyword, "ORDER") {
		if err := p.expect(TKeyword, "BY"); err != nil {
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
		if p.accept(TKeyword, "DESC") {
			s.OrderBy.Desc = true
		} else {
			p.accept(TKeyword, "ASC")
		}
	}
	if p.accept(TKeyword, "LIMIT") {
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
func (p *Parser) attrRef() (typ, attr string, err error) {
	name, err := p.ident()
	if err != nil {
		return "", "", err
	}
	if p.accept(TSymbol, ".") {
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
func (p *Parser) projItem() (ProjItem, error) {
	name, err := p.ident()
	if err != nil {
		return ProjItem{}, err
	}
	item := ProjItem{Type: name}
	if p.accept(TSymbol, ".") {
		attr, err := p.ident()
		if err != nil {
			return ProjItem{}, err
		}
		item.Attrs = []string{attr}
		return item, nil
	}
	if p.accept(TSymbol, "(") {
		for {
			attr, err := p.ident()
			if err != nil {
				return ProjItem{}, err
			}
			item.Attrs = append(item.Attrs, attr)
			if !p.accept(TSymbol, ",") {
				break
			}
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return ProjItem{}, err
		}
	}
	return item, nil
}

// fromClause parses the FROM item.
func (p *Parser) fromClause() (FromClause, error) {
	if p.accept(TKeyword, "RECURSIVE") {
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
	if p.accept(TSymbol, "(") {
		node, err := p.structure()
		if err != nil {
			return FromClause{}, err
		}
		if err := p.expect(TSymbol, ")"); err != nil {
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
func (p *Parser) recursiveClause() (*RecursiveClause, error) {
	typ, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TKeyword, "VIA"); err != nil {
		return nil, err
	}
	link, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	rc := &RecursiveClause{Type: typ, Link: link}
	if p.accept(TKeyword, "UP") {
		rc.Up = true
	} else {
		p.accept(TKeyword, "DOWN")
	}
	if p.accept(TKeyword, "DEPTH") {
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		rc.Depth = int(n)
	}
	return rc, nil
}

// structure parses a chain: node ('-' (ident | '[' link ']' | group))*.
func (p *Parser) structure() (*StructNode, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	root := &StructNode{Type: name}
	cur := root
	pendingLink := ""
	for p.accept(TSymbol, "-") {
		switch {
		case p.accept(TSymbol, "["):
			link, err := p.hyphenName()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TSymbol, "]"); err != nil {
				return nil, err
			}
			pendingLink = link
		case p.peekIs(TSymbol, "("):
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
				if !p.accept(TSymbol, ",") {
					break
				}
			}
			if err := p.expect(TSymbol, ")"); err != nil {
				return nil, err
			}
			if p.peekIs(TSymbol, "-") {
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
func (p *Parser) defineStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "DEFINE"); err != nil {
		return nil, err
	}
	if err := p.expect(TKeyword, "MOLECULE"); err != nil {
		return nil, err
	}
	if err := p.expect(TKeyword, "TYPE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TKeyword, "AS"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TKeyword && (t.Text == "UNION" || t.Text == "DIFFERENCE" || t.Text == "INTERSECT") {
		p.pos++
		if err := p.expect(TKeyword, "OF"); err != nil {
			return nil, err
		}
		left, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TKeyword, "AND"); err != nil {
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
func (p *Parser) createStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "CREATE"); err != nil {
		return nil, err
	}
	switch {
	case p.accept(TKeyword, "ATOM"):
		if err := p.expect(TKeyword, "TYPE"); err != nil {
			return nil, err
		}
		name, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, "("); err != nil {
			return nil, err
		}
		var attrs []model.AttrDesc
		for {
			aname, err := p.ident()
			if err != nil {
				return nil, err
			}
			t := p.peek()
			if t.Kind != TIdent && t.Kind != TKeyword {
				return nil, fmt.Errorf("mql: expected type name after attribute %q", aname)
			}
			p.pos++
			kind, ok := model.KindFromName(t.Text)
			if !ok {
				return nil, fmt.Errorf("mql: unknown attribute type %q", t.Text)
			}
			ad := model.AttrDesc{Name: aname, Kind: kind}
			if p.accept(TKeyword, "NOT") {
				if err := p.expect(TKeyword, "NULL"); err != nil {
					return nil, err
				}
				ad.NotNull = true
			}
			attrs = append(attrs, ad)
			if !p.accept(TSymbol, ",") {
				break
			}
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateAtomTypeStmt{Name: name, Attrs: attrs}, nil

	case p.accept(TKeyword, "LINK"):
		if err := p.expect(TKeyword, "TYPE"); err != nil {
			return nil, err
		}
		name, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TKeyword, "BETWEEN"); err != nil {
			return nil, err
		}
		a, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TKeyword, "AND"); err != nil {
			return nil, err
		}
		b, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		desc := model.LinkDesc{SideA: a, SideB: b}
		if p.accept(TKeyword, "CARD") {
			ca, err := p.cardinality()
			if err != nil {
				return nil, err
			}
			if err := p.expect(TSymbol, ","); err != nil {
				return nil, err
			}
			cb, err := p.cardinality()
			if err != nil {
				return nil, err
			}
			desc.CardA, desc.CardB = ca, cb
		}
		return &CreateLinkTypeStmt{Name: name, Desc: desc}, nil

	case p.accept(TKeyword, "INDEX"):
		if err := p.expect(TKeyword, "ON"); err != nil {
			return nil, err
		}
		typ, err := p.hyphenName()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, "("); err != nil {
			return nil, err
		}
		attr, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return &CreateIndexStmt{Type: typ, Attr: attr}, nil
	}
	return nil, fmt.Errorf("mql: expected ATOM, LINK or INDEX after CREATE, got %s", p.peek())
}

// cardinality parses "n:m" where each side is an integer or 'n'.
func (p *Parser) cardinality() (model.Cardinality, error) {
	min, err := p.intLit()
	if err != nil {
		return model.Cardinality{}, err
	}
	if err := p.expect(TSymbol, ":"); err != nil {
		return model.Cardinality{}, err
	}
	t := p.peek()
	if t.Kind == TIdent && strings.EqualFold(t.Text, "n") {
		p.pos++
		return model.Cardinality{Min: int(min)}, nil
	}
	max, err := p.intLit()
	if err != nil {
		return model.Cardinality{}, err
	}
	return model.Cardinality{Min: int(min), Max: int(max)}, nil
}

func (p *Parser) intLit() (int64, error) {
	t := p.peek()
	if t.Kind != TNumber {
		return 0, fmt.Errorf("mql: expected number, got %s", t)
	}
	p.pos++
	return strconv.ParseInt(t.Text, 10, 64)
}

// insertStmt parses INSERT INTO type [(attrs)] VALUES (lits)[, ...].
func (p *Parser) insertStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if err := p.expect(TKeyword, "INTO"); err != nil {
		return nil, err
	}
	typ, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Type: typ}
	if p.accept(TSymbol, "(") {
		for {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Attrs = append(st.Attrs, a)
			if !p.accept(TSymbol, ",") {
				break
			}
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if err := p.expect(TKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expect(TSymbol, "("); err != nil {
			return nil, err
		}
		var row []model.Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.accept(TSymbol, ",") {
				break
			}
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(TSymbol, ",") {
			break
		}
	}
	return st, nil
}

// literal parses a value literal.
func (p *Parser) literal() (model.Value, error) {
	t := p.peek()
	switch {
	case t.Kind == TNumber:
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
	case t.Kind == TString:
		p.pos++
		return model.Str(t.Text), nil
	case t.Kind == TKeyword && t.Text == "TRUE":
		p.pos++
		return model.Bool(true), nil
	case t.Kind == TKeyword && t.Text == "FALSE":
		p.pos++
		return model.Bool(false), nil
	case t.Kind == TKeyword && t.Text == "NULL":
		p.pos++
		return model.Null(), nil
	case t.Kind == TSymbol && t.Text == "-":
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
func (p *Parser) updateStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "UPDATE"); err != nil {
		return nil, err
	}
	typ, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	if err := p.expect(TKeyword, "SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Type: typ, Set: make(map[string]model.Value)}
	for {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, "="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		st.Set[a] = v
		st.Order = append(st.Order, a)
		if !p.accept(TSymbol, ",") {
			break
		}
	}
	if p.accept(TKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.Where = pred
	}
	return st, nil
}

// deleteStmt parses DELETE FROM type [WHERE pred].
func (p *Parser) deleteStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "DELETE"); err != nil {
		return nil, err
	}
	if err := p.expect(TKeyword, "FROM"); err != nil {
		return nil, err
	}
	typ, err := p.hyphenName()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Type: typ}
	if p.accept(TKeyword, "WHERE") {
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
func (p *Parser) connectStmt() (Stmt, error) {
	remove := false
	if p.accept(TKeyword, "DISCONNECT") {
		remove = true
	} else if err := p.expect(TKeyword, "CONNECT"); err != nil {
		return nil, err
	}
	from, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &ConnectStmt{FromType: from, Remove: remove}
	if p.accept(TKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.FromWhere = pred
	}
	if err := p.expect(TKeyword, "TO"); err != nil {
		return nil, err
	}
	to, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.ToType = to
	if p.accept(TKeyword, "WHERE") {
		pred, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		st.ToWhere = pred
	}
	if err := p.expect(TKeyword, "VIA"); err != nil {
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
// HISTOGRAMS|CACHE.
func (p *Parser) showStmt() (Stmt, error) {
	if err := p.expect(TKeyword, "SHOW"); err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind != TKeyword {
		return nil, fmt.Errorf("mql: expected SHOW target, got %s", t)
	}
	p.pos++
	switch t.Text {
	case "SCHEMA", "TYPES", "INDEXES", "STATS", "HISTOGRAMS", "CACHE":
		return &ShowStmt{What: t.Text}, nil
	case "MOLECULE", "MOLECULES":
		p.accept(TKeyword, "TYPES")
		return &ShowStmt{What: "MOLECULES"}, nil
	}
	return nil, fmt.Errorf("mql: unknown SHOW target %s", t)
}

// ---- predicate expressions ----

// orExpr := andExpr (OR andExpr)*
func (p *Parser) orExpr() (expr.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(TKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = expr.Or{L: l, R: r}
	}
	return l, nil
}

// andExpr := notExpr (AND notExpr)*
func (p *Parser) andExpr() (expr.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(TKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = expr.And{L: l, R: r}
	}
	return l, nil
}

// notExpr := NOT notExpr | cmpExpr
func (p *Parser) notExpr() (expr.Expr, error) {
	if p.accept(TKeyword, "NOT") {
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
func (p *Parser) cmpExpr() (expr.Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TSymbol {
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
func (p *Parser) addExpr() (expr.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(TSymbol, "+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Arith{Op: expr.Add, L: l, R: r}
		case p.accept(TSymbol, "-"):
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
func (p *Parser) mulExpr() (expr.Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.ArithOp
		switch {
		case p.accept(TSymbol, "*"):
			op = expr.Mul
		case p.accept(TSymbol, "/"):
			op = expr.Div
		case p.accept(TSymbol, "%"):
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
func (p *Parser) unaryExpr() (expr.Expr, error) {
	if p.accept(TSymbol, "-") {
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
func (p *Parser) primaryExpr() (expr.Expr, error) {
	t := p.peek()
	switch {
	case t.Kind == TNumber || t.Kind == TString ||
		(t.Kind == TKeyword && (t.Text == "TRUE" || t.Text == "FALSE" || t.Text == "NULL")):
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		return expr.Lit(v), nil
	case t.Kind == TKeyword && t.Text == "EXISTS":
		p.pos++
		if err := p.expect(TSymbol, "("); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return expr.Exists{Type: typ}, nil
	case t.Kind == TKeyword && t.Text == "COUNT":
		p.pos++
		if err := p.expect(TSymbol, "("); err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return expr.CountOf{Type: typ}, nil
	case t.Kind == TSymbol && t.Text == "?":
		p.pos++
		idx := p.params
		p.params++
		return expr.Attr{Type: paramType, Name: strconv.Itoa(idx)}, nil
	case t.Kind == TSymbol && t.Text == "(":
		p.pos++
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(TSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TIdent:
		name, _ := p.ident()
		if p.peekIs(TSymbol, "(") {
			// function call
			p.pos++
			if err := p.enter(); err != nil {
				return nil, err
			}
			defer p.leave()
			var args []expr.Expr
			if !p.peekIs(TSymbol, ")") {
				for {
					a, err := p.orExpr()
					if err != nil {
						return nil, err
					}
					args = append(args, a)
					if !p.accept(TSymbol, ",") {
						break
					}
				}
			}
			if err := p.expect(TSymbol, ")"); err != nil {
				return nil, err
			}
			return expr.Func{Name: name, Args: args}, nil
		}
		if p.accept(TSymbol, ".") {
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
