package server_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mad/internal/mql"
	"mad/internal/server"
	"mad/internal/storage"
)

// dialTxnServer boots a server over a parts schema and dials n clients.
func dialTxnServer(t *testing.T, n int) (*storage.Database, []*server.Client) {
	t.Helper()
	db := storage.NewDatabase()
	_, addr := startServer(t, db)
	clients := make([]*server.Client, n)
	for i := range clients {
		c, err := server.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	if _, err := clients[0].Exec(`
CREATE ATOM TYPE parts (name STRING NOT NULL, weight FLOAT);
INSERT INTO parts VALUES ('engine', 120.5), ('piston', 2.5);
`); err != nil {
		t.Fatal(err)
	}
	return db, clients
}

// TestServerTxnIsolationAcrossConnections drives BEGIN/INSERT/COMMIT on
// one connection while another streams SELECTs: the reader sees either
// the pre-commit or post-commit state, never a partial transaction.
func TestServerTxnIsolationAcrossConnections(t *testing.T) {
	_, cs := dialTxnServer(t, 2)
	writer, reader := cs[0], cs[1]

	if out, err := writer.Exec("BEGIN;"); err != nil || !strings.Contains(out, "transaction started") {
		t.Fatalf("BEGIN: %v %q", err, out)
	}
	if _, err := writer.Exec("INSERT INTO parts VALUES ('ring', 0.1); INSERT INTO parts VALUES ('bolt', 0.05);"); err != nil {
		t.Fatal(err)
	}
	out, err := reader.Exec("SELECT ALL FROM parts;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2 molecule(s)") {
		t.Fatalf("reader sees buffered writes before commit:\n%s", out)
	}
	// The writer's own SELECT reads the effective view: begin snapshot
	// plus its buffered writes (read-your-writes).
	out, err = writer.Exec("SELECT ALL FROM parts;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 molecule(s)") || !strings.Contains(out, "ring") {
		t.Fatalf("writer misses own buffered writes mid-txn:\n%s", out)
	}
	if out, err = writer.Exec("COMMIT;"); err != nil || !strings.Contains(out, "committed 2 mutation(s)") {
		t.Fatalf("COMMIT: %v %q", err, out)
	}
	out, err = reader.Exec("SELECT ALL FROM parts;")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "4 molecule(s)") {
		t.Fatalf("reader after commit:\n%s", out)
	}
}

// TestServerDroppedConnectionRollsBack verifies that a client that
// disconnects with a transaction open leaves no trace: the deferred
// session Close rolls the buffered writes back and releases the pinned
// snapshot so vacuum can advance.
func TestServerDroppedConnectionRollsBack(t *testing.T) {
	db, cs := dialTxnServer(t, 2)
	doomed, survivor := cs[0], cs[1]
	if _, err := doomed.Exec("BEGIN; INSERT INTO parts VALUES ('ghost', 0.0);"); err != nil {
		t.Fatal(err)
	}
	doomed.Close()
	// The handler tears the session down asynchronously after the
	// disconnect; poll through the surviving connection.
	waitOK := false
	for i := 0; i < 200 && !waitOK; i++ {
		db.Vacuum()
		st := db.Vacuum()
		waitOK = st.Reclaimed == 0 && db.VacuumHorizon() == db.LatestTS()
	}
	out, err := survivor.Exec("SELECT ALL FROM parts;")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "ghost") || !strings.Contains(out, "2 molecule(s)") {
		t.Fatalf("abandoned txn leaked:\n%s", out)
	}
}

// TestServerConcurrentTxnWritersAndStreamingReaders is the wire-level
// mixed workload: several connections run BEGIN/INSERT/COMMIT loops
// while several others stream SELECTs. Every response must parse
// cleanly, every reader must see a whole number of committed
// transactions (each commit installs exactly 2 parts), and the final
// state must account for every commit.
func TestServerConcurrentTxnWritersAndStreamingReaders(t *testing.T) {
	const writers, readers, rounds = 3, 3, 8
	db, cs := dialTxnServer(t, writers+readers+1)
	check := cs[writers+readers]

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := cs[w]
			for r := 0; r < rounds; r++ {
				script := fmt.Sprintf(
					"BEGIN; INSERT INTO parts VALUES ('w%d_%d_a', 1.0); INSERT INTO parts VALUES ('w%d_%d_b', 2.0); COMMIT;",
					w, r, w, r)
				if _, err := c.Exec(script); err != nil {
					errc <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cs[writers+r]
			for i := 0; i < rounds; i++ {
				out, err := c.Exec("SELECT ALL FROM parts;")
				if err != nil {
					errc <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				// Each streamed response trails "<n> molecule(s) of ...";
				// n-2 seeded parts must be an even count: a whole number
				// of 2-insert transactions, never half of one.
				n := -1
				for _, line := range strings.Split(out, "\n") {
					if _, err := fmt.Sscanf(line, "%d molecule(s)", &n); err == nil {
						break
					}
				}
				if n < 2 || (n-2)%2 != 0 {
					errc <- fmt.Errorf("reader %d saw torn commit: %d parts\n%s", r, n, out)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	out, err := check.Exec("SELECT ALL FROM parts;")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("%d molecule(s)", 2+2*writers*rounds)
	if !strings.Contains(out, want) {
		t.Fatalf("final state: want %s in\n%s", want, out)
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestServerChunksMaterializedResult: a SELECT inside a transaction
// holding buffered writes is materialized before it is sent, yet it must
// still travel in CHUNK frames of about the chunk size — one unbounded
// frame would exceed the frame limit clients enforce on a big enough
// result — and reassemble to exactly what Result.Render prints.
func TestServerChunksMaterializedResult(t *testing.T) {
	db := storage.NewDatabase()
	srv, addr := startServer(t, db)
	srv.SetChunkSize(256)
	var load strings.Builder
	load.WriteString("CREATE ATOM TYPE parts (name STRING NOT NULL, weight FLOAT);\n")
	for i := range 60 {
		fmt.Fprintf(&load, "INSERT INTO parts VALUES ('p%d', %d.5);\n", i, i)
	}
	const dirty = "UPDATE parts SET weight = 0.25 WHERE name = 'p7';"
	const sel = "SELECT ALL FROM parts;"

	sess := mql.NewSession(db)
	for _, src := range []string{load.String(), "BEGIN;", dirty} {
		if _, err := sess.ExecScript(src); err != nil {
			t.Fatal(err)
		}
	}
	r, err := sess.Exec(sel)
	if err != nil {
		t.Fatal(err)
	}
	want := r.Render(db)
	if len(r.Set) < 50 {
		t.Fatalf("fixture: %d molecules", len(r.Set))
	}
	largest := 0
	for _, m := range strings.SplitAfter(want, "\n-- molecule") {
		largest = max(largest, len(m))
	}

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	br := bufio.NewReader(raw)
	for _, src := range []string{"BEGIN;", dirty} {
		if frames := rawExec(t, raw, br, src); len(frames) != 1 {
			t.Fatalf("%s: %d frames", src, len(frames))
		}
	}
	frames := rawExec(t, raw, br, sel)
	if len(frames) < 3 {
		t.Fatalf("materialized result sent in %d frame(s)", len(frames))
	}
	var got strings.Builder
	for _, f := range frames {
		if len(f) > 256+largest {
			t.Errorf("frame of %d bytes exceeds chunk size 256 + largest molecule %d", len(f), largest)
		}
		got.Write(f)
	}
	if got.String() != want {
		t.Errorf("reassembled frames differ from Result.Render\n--- got ---\n%.400s\n--- want ---\n%.400s", got.String(), want)
	}
}

// rawExec sends one request over a raw connection and returns the
// payloads of its response frames: the CHUNKs, then the closing OK.
func rawExec(t *testing.T, w io.Writer, r *bufio.Reader, req string) [][]byte {
	t.Helper()
	if _, err := fmt.Fprintf(w, "REQ %d\n%s", len(req), req); err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
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
		frames = append(frames, payload)
		switch verb {
		case "CHUNK":
		case "OK":
			return frames
		default:
			t.Fatalf("%s: unexpected verb %q with payload %q", req, verb, payload)
		}
	}
}
