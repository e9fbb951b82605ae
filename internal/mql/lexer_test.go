package mql

import (
	"strings"
	"testing"
)

func TestLexer(t *testing.T) {
	toks, err := lexAll("SELECT ALL FROM mt_state(state-area) WHERE point.name = 'pn'; -- comment")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Text)
	}
	joined := strings.Join(kinds, " ")
	if !strings.Contains(joined, "SELECT ALL FROM mt_state ( state - area ) WHERE point . name = pn ;") {
		t.Fatalf("lexed: %s", joined)
	}
}

func TestLexerStringsAndNumbers(t *testing.T) {
	toks, err := lexAll(`x = 'it''s' y = 3.25 z = "dq"`)
	if err != nil {
		t.Fatal(err)
	}
	var strs []string
	for _, tk := range toks {
		if tk.Kind == tString {
			strs = append(strs, tk.Text)
		}
	}
	if len(strs) != 2 || strs[0] != "it's" || strs[1] != "dq" {
		t.Fatalf("strings = %v", strs)
	}
	if _, err := lexAll("'unterminated"); err == nil {
		t.Fatal("unterminated string must fail")
	}
}
