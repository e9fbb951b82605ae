package server_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mad/internal/server"
	"mad/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current wire output")

// TestRecursiveWireGolden pins the CHUNK-reassembled bytes of recursive
// statements (several frames each at this chunk size): the capture
// predates the fold of recursion into the one SELECT pipeline, so the
// single streaming loop must reproduce it exactly. The fixture is the
// reconvergent, cyclic bill of material of the mql render golden.
func TestRecursiveWireGolden(t *testing.T) {
	srv, addr := startServer(t, storage.NewDatabase())
	srv.SetChunkSize(64)
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec(`
CREATE ATOM TYPE parts (name STRING NOT NULL, cat STRING);
CREATE LINK TYPE composition BETWEEN parts AND parts;
INSERT INTO parts VALUES ('car', 'assembly'), ('engine', 'assembly'), ('chassis', 'assembly'), ('bolt', 'piece'), ('nut', 'piece'), ('ring', 'piece');
CONNECT parts WHERE name = 'car' TO parts WHERE name = 'engine' VIA composition;
CONNECT parts WHERE name = 'car' TO parts WHERE name = 'chassis' VIA composition;
CONNECT parts WHERE name = 'engine' TO parts WHERE name = 'bolt' VIA composition;
CONNECT parts WHERE name = 'chassis' TO parts WHERE name = 'bolt' VIA composition;
CONNECT parts WHERE name = 'engine' TO parts WHERE name = 'ring' VIA composition;
CONNECT parts WHERE name = 'bolt' TO parts WHERE name = 'nut' VIA composition;
CONNECT parts WHERE name = 'nut' TO parts WHERE name = 'engine' VIA composition;
`); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, src := range []string{
		"SELECT ALL FROM RECURSIVE parts VIA composition;",
		"SELECT ALL FROM RECURSIVE parts VIA composition UP DEPTH 2;",
		"SELECT COUNT FROM RECURSIVE parts VIA composition GROUP BY cat;",
	} {
		out, err := c.Exec(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		got.WriteString("mql> " + src + "\n" + out)
	}
	path := filepath.Join("testdata", "recursive-wire.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("recursive wire bytes drifted from %s\n--- got ---\n%s--- want ---\n%s", path, got.String(), want)
	}
}
