// Package mql implements MQL, the molecule query language the paper calls
// MQL ("MOL"): an SQL-like surface syntax whose semantics are defined by
// translation into the molecule algebra (Chapter 4). The package provides
// a lexer, a recursive-descent parser, a semantic analyzer that resolves
// structures against the catalog, and an executor with two modes:
//
//   - query mode (SELECT): derives, restricts and projects molecules
//     without enlarging the database;
//   - algebra mode (DEFINE MOLECULE TYPE ... AS SELECT ...): runs the
//     molecule algebra operators with propagation, registering the result
//     as a named molecule type over the enlarged database — the normative
//     semantics.
//
// The molecule structure syntax follows the paper's examples:
//
//	state-area-edge-point               chain; '-' resolves the unique
//	                                    link type between adjacent types
//	point-edge-(area-state, net-river)  branching after a node
//	a-[linkname]-b                      explicit link-type name
package mql

import (
	"fmt"
	"strings"
	"unicode"
)

// tokKind enumerates token kinds.
type tokKind uint8

// Token kinds.
const (
	tEOF tokKind = iota
	tIdent
	tKeyword
	tNumber
	tString
	tSymbol // punctuation and operators
)

// token is one lexical unit.
type token struct {
	Kind tokKind
	Text string // raw text; keywords are upper-cased
	Pos  int    // byte offset, for error messages
}

// String renders the token for diagnostics.
func (t token) String() string {
	switch t.Kind {
	case tEOF:
		return "end of input"
	case tString:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywords recognized by the parser (case-insensitive in source).
var keywords = map[string]bool{
	"SELECT": true, "ALL": true, "FROM": true, "WHERE": true,
	"AND": true, "OR": true, "NOT": true, "EXISTS": true, "COUNT": true,
	"TRUE": true, "FALSE": true, "NULL": true,
	"CREATE": true, "ATOM": true, "LINK": true, "TYPE": true,
	"BETWEEN": true, "CARD": true, "INDEX": true, "ON": true,
	"INSERT": true, "INTO": true, "VALUES": true,
	"UPDATE": true, "SET": true, "DELETE": true,
	"CONNECT": true, "DISCONNECT": true, "TO": true, "VIA": true,
	"DEFINE": true, "MOLECULE": true, "AS": true,
	"SHOW": true, "SCHEMA": true, "TYPES": true, "INDEXES": true,
	"STATS": true, "MOLECULES": true,
	"EXPLAIN": true, "RECURSIVE": true, "DEPTH": true, "DOWN": true, "UP": true,
	"UNION": true, "DIFFERENCE": true, "INTERSECT": true, "OF": true,
	"ANALYZE": true, "ESTIMATE": true, "HISTOGRAMS": true, "LIMIT": true,
	"PREPARE": true, "EXECUTE": true,
	"ORDER": true, "BY": true, "GROUP": true, "ASC": true, "DESC": true,
	"BEGIN": true, "COMMIT": true, "ROLLBACK": true, "TRANSACTION": true,
	"CHECKPOINT": true,
}

// lexer turns MQL source into tokens.
type lexer struct {
	src string
	pos int
}

// newLexer creates a lexer over the source text.
func newLexer(src string) *lexer { return &lexer{src: src} }

// isIdentStart reports whether r can start an identifier.
func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

// isIdentPart reports whether r can continue an identifier. '~' appears in
// generated (propagated) type names, so it is an identifier character.
func isIdentPart(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '~'
}

// Next returns the next token.
func (lx *lexer) Next() (token, error) {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			lx.pos++
		case c == '-' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '-':
			// SQL-style comment to end of line.
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		default:
			goto scan
		}
	}
	return token{Kind: tEOF, Pos: lx.pos}, nil

scan:
	start := lx.pos
	c := rune(lx.src[lx.pos])
	switch {
	case isIdentStart(c):
		for lx.pos < len(lx.src) && isIdentPart(rune(lx.src[lx.pos])) {
			lx.pos++
		}
		text := lx.src[start:lx.pos]
		if up := strings.ToUpper(text); keywords[up] {
			return token{Kind: tKeyword, Text: up, Pos: start}, nil
		}
		return token{Kind: tIdent, Text: text, Pos: start}, nil
	case c >= '0' && c <= '9':
		seenDot := false
		for lx.pos < len(lx.src) {
			d := lx.src[lx.pos]
			if d == '.' && !seenDot && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] >= '0' && lx.src[lx.pos+1] <= '9' {
				seenDot = true
				lx.pos++
				continue
			}
			if d < '0' || d > '9' {
				break
			}
			lx.pos++
		}
		return token{Kind: tNumber, Text: lx.src[start:lx.pos], Pos: start}, nil
	case c == '\'' || c == '"':
		quote := byte(c)
		lx.pos++
		var b strings.Builder
		for lx.pos < len(lx.src) {
			d := lx.src[lx.pos]
			if d == quote {
				if lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == quote {
					b.WriteByte(quote) // doubled quote escapes
					lx.pos += 2
					continue
				}
				lx.pos++
				return token{Kind: tString, Text: b.String(), Pos: start}, nil
			}
			b.WriteByte(d)
			lx.pos++
		}
		return token{}, fmt.Errorf("mql: unterminated string at offset %d", start)
	default:
		// Multi-character symbols first.
		two := ""
		if lx.pos+1 < len(lx.src) {
			two = lx.src[lx.pos : lx.pos+2]
		}
		switch two {
		case "<=", ">=", "<>", "!=":
			lx.pos += 2
			return token{Kind: tSymbol, Text: two, Pos: start}, nil
		}
		switch c {
		case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', ';', '.', '[', ']', ':', '?':
			lx.pos++
			return token{Kind: tSymbol, Text: string(c), Pos: start}, nil
		}
		return token{}, fmt.Errorf("mql: unexpected character %q at offset %d", c, start)
	}
}

// lexAll tokenizes the whole source (convenience for the parser).
func lexAll(src string) ([]token, error) {
	lx := newLexer(src)
	var out []token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == tEOF {
			return out, nil
		}
	}
}
