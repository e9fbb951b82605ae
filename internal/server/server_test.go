package server_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mad/internal/geo"
	"mad/internal/model"
	"mad/internal/mql"
	"mad/internal/server"
	"mad/internal/storage"
)

// startServer boots a server on a free port and returns a dialed client.
func startServer(t *testing.T, db *storage.Database) (*server.Server, string) {
	t.Helper()
	srv := server.New(db)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, addr.String()
}

func TestServerBasicSession(t *testing.T) {
	_, addr := startServer(t, storage.NewDatabase())
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, err := c.Exec(`
CREATE ATOM TYPE t (name STRING NOT NULL);
INSERT INTO t VALUES ('x'), ('y');
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "inserted 2 atom(s)") {
		t.Fatalf("out: %s", out)
	}
	out, err = c.Exec("SELECT ALL FROM t;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 molecule(s)") {
		t.Fatalf("query out: %s", out)
	}
}

func TestServerErrorsAreRemoteErrors(t *testing.T) {
	_, addr := startServer(t, storage.NewDatabase())
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT ALL FROM nosuch;")
	var re *server.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	// The connection survives statement errors.
	if _, err := c.Exec("SHOW SCHEMA;"); err != nil {
		t.Fatalf("connection dead after error: %v", err)
	}
}

// TestServerDeepNestingIsAnError: a request nested far past the parser's
// depth bound is answered with ERR instead of exhausting the handler's
// stack, and the same connection then serves the next SELECT.
func TestServerDeepNestingIsAnError(t *testing.T) {
	_, addr := startServer(t, storage.NewDatabase())
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("CREATE ATOM TYPE a (x INT); INSERT INTO a VALUES (1);"); err != nil {
		t.Fatal(err)
	}
	const levels = 100_000
	deep := "SELECT ALL FROM a WHERE " + strings.Repeat("(", levels) + "a.x = 1" + strings.Repeat(")", levels) + ";"
	_, err = c.Exec(deep)
	var re *server.RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "nests deeper than") {
		t.Fatalf("deep request: want the nesting ERR, got %v", err)
	}
	out, err := c.Exec("SELECT ALL FROM a;")
	if err != nil || !strings.Contains(out, "1 molecule(s)") {
		t.Fatalf("connection after the deep request: %q, %v", out, err)
	}
}

func TestServerGeoQueries(t *testing.T) {
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, s.DB)
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Exec("SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn';")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Parana", "Sao Paulo", "Goias"} {
		if !strings.Contains(out, want) {
			t.Fatalf("pn neighborhood missing %q:\n%s", want, out)
		}
	}
}

func TestServerSessionsAreIsolated(t *testing.T) {
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, s.DB)
	c1, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	// Named molecule types are per-session (dynamic object definition).
	if _, err := c1.Exec("SELECT ALL FROM mt_state(state-area-edge-point);"); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec("SELECT ALL FROM mt_state;"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Exec("SELECT ALL FROM mt_state;"); err == nil {
		t.Fatal("session 2 must not see session 1's named types")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, s.DB)
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := server.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 10; j++ {
				out, err := c.Exec("SELECT ALL FROM state-area WHERE hectare > 300;")
				if err != nil {
					errs <- err
					return
				}
				if !strings.Contains(out, "4 molecule(s)") {
					errs <- errors.New("wrong result under concurrency: " + out[:50])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestServerLargeResult(t *testing.T) {
	syn, err := geo.BuildSynthetic(geo.Config{
		States: 512, EdgesPerArea: 3, Sharing: 2, Rivers: 2, RiverEdges: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, syn.DB)
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	out, err := c.Exec("SELECT ALL FROM state-area-edge-point;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "512 molecule(s)") {
		t.Fatal("large result truncated")
	}
	if len(out) < 100_000 {
		t.Fatalf("result suspiciously small: %d bytes", len(out))
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t, storage.NewDatabase())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close must be a no-op")
	}
}

func TestServerDropsProtocolViolators(t *testing.T) {
	_, addr := startServer(t, storage.NewDatabase())
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("GARBAGE FRAME\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("server must drop protocol violators without responding")
	}
	// A well-behaved client still works afterwards.
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("SHOW SCHEMA;"); err != nil {
		t.Fatal(err)
	}
}

func TestServerOversizedFrameRejected(t *testing.T) {
	_, addr := startServer(t, storage.NewDatabase())
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("REQ 999999999999\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("oversized frame must drop the connection")
	}
}

// TestServerBoundsFrameHeader: a peer that sends a 64 MiB header with no
// newline is dropped once the header outgrows the read buffer — the
// server neither waits for the rest nor holds the bytes — and a new
// connection is still answered.
func TestServerBoundsFrameHeader(t *testing.T) {
	_, addr := startServer(t, storage.NewDatabase())
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		block := []byte(strings.Repeat("R", 1<<20))
		for i := 0; i < 64; i++ {
			if _, err := raw.Write(block); err != nil {
				return // dropped, as it should be
			}
		}
	}()
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err = raw.Read(make([]byte, 16))
	raw.Close()
	<-wrote
	var ne net.Error
	if err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("an unterminated header was not refused: %v", err)
	}
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Exec("SHOW SCHEMA;"); err != nil {
		t.Fatal(err)
	}
}

// TestServerStreamsChunks speaks the raw protocol against a server with
// a tiny chunk threshold: a large SELECT must arrive as several CHUNK
// frames followed by the closing OK, and their concatenation must carry
// every molecule plus the trailing summary line.
func TestServerStreamsChunks(t *testing.T) {
	syn, err := geo.BuildSynthetic(geo.Config{
		States: 64, EdgesPerArea: 3, Sharing: 2, Rivers: 2, RiverEdges: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, syn.DB)
	srv.SetChunkSize(256)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	req := "SELECT ALL FROM state-area-edge-point;"
	if _, err := fmt.Fprintf(raw, "REQ %d\n%s", len(req), req); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(raw)
	chunks := 0
	var out strings.Builder
	for {
		header, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		verb, sizeStr, _ := strings.Cut(strings.TrimSuffix(header, "\n"), " ")
		n, err := strconv.Atoi(sizeStr)
		if err != nil {
			t.Fatalf("bad frame header %q", header)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatal(err)
		}
		out.Write(payload)
		if verb == "CHUNK" {
			chunks++
			continue
		}
		if verb != "OK" {
			t.Fatalf("unexpected verb %q with payload %q", verb, payload)
		}
		break
	}
	if chunks < 2 {
		t.Fatalf("large result must stream in several chunks, got %d", chunks)
	}
	if got := out.String(); !strings.Contains(got, "-- molecule 64") || !strings.Contains(got, "64 molecule(s)") {
		t.Fatalf("reassembled result incomplete:\n%.300s", got)
	}
}

// TestServerStreamsExecute: the EXECUTE of a prepared SELECT streams
// like the SELECT it binds — a result larger than the chunk size arrives
// in several CHUNK frames, molecules first and the summary line last —
// and carries exactly the molecules of that SELECT.
func TestServerStreamsExecute(t *testing.T) {
	db := storage.NewDatabase()
	srv, addr := startServer(t, db)
	var load strings.Builder
	load.WriteString("CREATE ATOM TYPE parts (name STRING NOT NULL, weight FLOAT);\n")
	for i := range 60 {
		fmt.Fprintf(&load, "INSERT INTO parts VALUES ('p%d', %d.5);\n", i, i)
	}
	if _, err := mql.NewSession(db).ExecScript(load.String()); err != nil {
		t.Fatal(err)
	}
	srv.SetChunkSize(256)
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	rawExec(t, raw, br, "PREPARE heavy AS SELECT ALL FROM parts WHERE weight > ?;")
	frames := rawExec(t, raw, br, "EXECUTE heavy (10.0);")
	if chunks := len(frames) - 1; chunks < 2 {
		t.Fatalf("EXECUTE sent %d CHUNK frame(s), want at least 2", chunks)
	}
	got := string(bytes.Join(frames, nil))
	summary := strings.Index(got, "50 molecule(s)")
	if summary < 0 || summary < strings.LastIndex(got, "-- molecule") {
		t.Fatalf("summary missing or not last:\n%.300s", got)
	}
	if want := string(bytes.Join(rawExec(t, raw, br, "SELECT ALL FROM parts WHERE weight > 10.0;"), nil)); got != want {
		t.Fatalf("EXECUTE differs from its SELECT\n--- got ---\n%.300s\n--- want ---\n%.300s", got, want)
	}
}

// TestServerRequestDeadline: a request outliving the per-request
// deadline is aborted and answered with an ERR frame carrying the
// context error; the connection stays usable.
func TestServerRequestDeadline(t *testing.T) {
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startServer(t, s.DB)
	srv.SetRequestTimeout(time.Nanosecond)
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Exec("SELECT ALL FROM state-area-edge-point;")
	var re *server.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "deadline") {
		t.Fatalf("want deadline RemoteError, got %v", err)
	}
	srv.SetRequestTimeout(0)
	if _, err := c.Exec("SHOW SCHEMA;"); err != nil {
		t.Fatalf("connection dead after deadline: %v", err)
	}
}

// TestServerClientDisconnectCancels: a client that hangs up mid-stream
// must not wedge its handler — the failed chunk write cancels the
// in-flight derivation and the handler exits, so Close (which waits for
// every handler) completes promptly.
func TestServerClientDisconnectCancels(t *testing.T) {
	syn, err := geo.BuildSynthetic(geo.Config{
		States: 2048, EdgesPerArea: 4, Sharing: 2, Rivers: 2, RiverEdges: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(syn.DB)
	srv.SetChunkSize(64)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	raw, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	req := "SELECT ALL FROM state-area-edge-point;"
	if _, err := fmt.Fprintf(raw, "REQ %d\n%s", len(req), req); err != nil {
		t.Fatal(err)
	}
	// Read one chunk header to be sure the stream started, then hang up.
	r := bufio.NewReader(raw)
	if _, err := r.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return: disconnected client's handler is wedged")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServerOrderedAndCountQueries drives the new ordered/aggregated
// surface over the wire: an ORDER BY SELECT streams its molecules in key
// order through the usual CHUNK frames, and SELECT COUNT (grouped or
// not) arrives as an eagerly rendered result.
func TestServerOrderedAndCountQueries(t *testing.T) {
	s, err := geo.BuildSample()
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, s.DB)
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	out, err := c.Exec("SELECT state FROM state-area ORDER BY hectare DESC LIMIT 2;")
	if err != nil {
		t.Fatal(err)
	}
	// Largest two states first: Bahia (1000) before Minas Gerais (900).
	ba, mg := strings.Index(out, "Bahia"), strings.Index(out, "Minas Gerais")
	if ba < 0 || mg < 0 || ba > mg {
		t.Fatalf("ordered delivery wrong (Bahia at %d, Minas Gerais at %d):\n%s", ba, mg, out)
	}
	if strings.Count(out, "-- molecule") != 2 {
		t.Fatalf("want 2 molecules:\n%s", out)
	}

	out, err = c.Exec("SELECT COUNT FROM state-area WHERE state.hectare > 500;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "count: 2") {
		t.Fatalf("count out: %s", out)
	}

	out, err = c.Exec("SELECT COUNT FROM state-area GROUP BY abbrev LIMIT 3;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 group(s) by abbrev") {
		t.Fatalf("group out: %s", out)
	}
}

// TestServerRecursiveStreaming: a recursive SELECT streams its closures
// over the wire as CHUNK frames as each one finishes — the reassembled
// payload carries every molecule level by level plus the trailing
// summary — and SELECT COUNT over a recursion arrives eagerly rendered.
func TestServerRecursiveStreaming(t *testing.T) {
	db := storage.NewDatabase()
	if _, err := db.DefineAtomType("parts", model.MustDesc(model.AttrDesc{Name: "name", Kind: model.KString})); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineLinkType("composition", model.LinkDesc{SideA: "parts", SideB: "parts"}); err != nil {
		t.Fatal(err)
	}
	const roots, depth = 16, 4
	ids := make([]model.AtomID, roots*depth)
	for i := range ids {
		id, err := db.InsertAtom("parts", model.Str(fmt.Sprintf("p%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for r := 0; r < roots; r++ {
		for d := 0; d < depth-1; d++ {
			if err := db.Connect("composition", ids[r*depth+d], ids[r*depth+d+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	srv, addr := startServer(t, db)
	srv.SetChunkSize(128)

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	req := "SELECT ALL FROM RECURSIVE parts VIA composition;"
	if _, err := fmt.Fprintf(raw, "REQ %d\n%s", len(req), req); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(raw)
	chunks := 0
	var out strings.Builder
	for {
		header, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		verb, sizeStr, _ := strings.Cut(strings.TrimSuffix(header, "\n"), " ")
		n, err := strconv.Atoi(sizeStr)
		if err != nil {
			t.Fatalf("bad frame header %q", header)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			t.Fatal(err)
		}
		out.Write(payload)
		if verb == "CHUNK" {
			chunks++
			continue
		}
		if verb != "OK" {
			t.Fatalf("unexpected verb %q with payload %q", verb, payload)
		}
		break
	}
	if chunks < 2 {
		t.Fatalf("recursive result must stream in several chunks, got %d", chunks)
	}
	got := out.String()
	if strings.Count(got, "-- molecule") != roots*depth {
		t.Fatalf("want %d closures, payload:\n%.400s", roots*depth, got)
	}
	for _, want := range []string{`level 0: "p000"`, `level 3: "p003"`, fmt.Sprintf("%d recursive molecule(s)\n", roots*depth)} {
		if !strings.Contains(got, want) {
			t.Fatalf("reassembled payload missing %q:\n%.400s", want, got)
		}
	}

	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cnt, err := c.Exec("SELECT COUNT FROM RECURSIVE parts VIA composition;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cnt, fmt.Sprintf("count: %d", roots*depth)) {
		t.Fatalf("recursive count over the wire: %s", cnt)
	}
}
