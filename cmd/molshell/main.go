// Command molshell is an interactive MQL shell over a MAD database.
//
// Usage:
//
//	molshell                    # empty in-memory database
//	molshell -geo               # preload the Fig. 1 geographic sample
//	molshell -db path.mad       # load a snapshot (saved on \save)
//	molshell -data dir          # durable database: WAL + checkpoints
//	echo "SELECT ...;" | molshell -geo
//
// With -data every committed statement is fsynced through the write-ahead
// log before it acknowledges, and the CHECKPOINT statement snapshots the
// database (including indexes and histograms) so the next start replays
// less log and estimates from the same statistics, so it plans as the
// last run did. The plan cache is not persisted.
//
// Statements end with ';'. Shell commands: \h help, \q quit,
// \save [path] snapshot, \stats counters, \trace toggles operation traces.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"mad"
	"mad/internal/geo"
	"mad/internal/mql"
	"mad/internal/storage"
)

func main() {
	var (
		geoFlag  = flag.Bool("geo", false, "preload the Fig. 1 geographic sample database")
		dbFlag   = flag.String("db", "", "load a database snapshot from this path")
		dataFlag = flag.String("data", "", "open a durable database in this directory (WAL + checkpoints)")
	)
	flag.Parse()

	db, err := openDatabase(*geoFlag, *dbFlag, *dataFlag)
	if err != nil {
		fmt.Fprintf(os.Stderr, "molshell: %v\n", err)
		os.Exit(1)
	}
	defer closeDatabase(db)
	sess := mql.NewSession(db)

	interactive := isTerminalLike()
	if interactive {
		fmt.Println("molshell — MQL over the molecule-atom data model (\\h for help)")
	}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var buf strings.Builder
	prompt(interactive, buf.Len() > 0)
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if quit := shellCommand(trimmed, db, *dbFlag); quit {
				return
			}
			prompt(interactive, false)
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			src := buf.String()
			buf.Reset()
			results, err := sess.ExecScript(src)
			for _, r := range results {
				fmt.Print(r.Render(db))
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
			}
		}
		prompt(interactive, buf.Len() > 0)
	}
	if err := scanner.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "molshell: %v\n", err)
		os.Exit(1)
	}
}

func openDatabase(loadGeo bool, path, dataDir string) (*storage.Database, error) {
	switch {
	case dataDir != "":
		if path != "" {
			return nil, fmt.Errorf("-data and -db are mutually exclusive")
		}
		db, err := mad.Open(dataDir)
		if err != nil {
			return nil, err
		}
		if loadGeo && db.TotalAtoms() == 0 {
			if err := seedGeo(db); err != nil {
				db.Close()
				return nil, err
			}
		}
		return db, nil
	case path != "":
		return storage.Load(path)
	case loadGeo:
		s, err := geo.BuildSample()
		if err != nil {
			return nil, err
		}
		return s.DB, nil
	default:
		return storage.NewDatabase(), nil
	}
}

// seedGeo loads the geographic sample into a fresh durable database as
// one transaction — schema, atoms and links — so the data goes through the
// WAL and lands whole or not at all.
func seedGeo(db *storage.Database) error {
	s, err := geo.BuildSample()
	if err != nil {
		return err
	}
	schema, t := s.DB.Schema(), db.Begin()
	defer t.Rollback()
	for _, at := range schema.AtomTypes() {
		if err := t.DefineAtomType(at.Name, at.Desc); err != nil {
			return err
		}
	}
	for _, lt := range schema.LinkTypes() {
		if err := t.DefineLinkType(lt.Name, lt.Desc); err != nil {
			return err
		}
	}
	for _, at := range schema.AtomTypes() {
		c, _ := s.DB.Container(at.Name)
		for _, a := range c.Atoms() {
			if err := t.AdoptAtom(at.Name, a); err != nil {
				return err
			}
		}
	}
	for _, lt := range schema.LinkTypes() {
		ls, _ := s.DB.LinkStore(lt.Name)
		for _, l := range ls.Links() {
			if err := t.Connect(lt.Name, l.A, l.B); err != nil {
				return err
			}
		}
	}
	return t.Commit()
}

func closeDatabase(db *storage.Database) {
	if err := db.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "molshell: close: %v\n", err)
	}
}

func prompt(interactive, continuation bool) {
	if !interactive {
		return
	}
	if continuation {
		fmt.Print("   ...> ")
	} else {
		fmt.Print("mql> ")
	}
}

// isTerminalLike decides whether to print prompts without resorting to
// syscalls: piped input usually arrives with MOLSHELL_BATCH set by tests,
// and prompts are harmless otherwise.
func isTerminalLike() bool {
	return os.Getenv("MOLSHELL_BATCH") == ""
}

// shellCommand executes a backslash command; it reports whether to quit.
func shellCommand(cmd string, db *storage.Database, defaultPath string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit", "\\exit":
		closeDatabase(db)
		os.Exit(0)
	case "\\h", "\\help":
		fmt.Println(`statements end with ';'. Examples:
  SELECT ALL FROM mt_state(state-area-edge-point);
  SELECT ALL FROM point-edge-(area-state, net-river) WHERE point.name = 'pn';
  DEFINE MOLECULE TYPE big AS SELECT ALL FROM state-area WHERE hectare > 300;
  SELECT ALL FROM RECURSIVE parts VIA composition WHERE name = 'car';
  CREATE ATOM TYPE t (a STRING NOT NULL, b INT); INSERT INTO t VALUES ('x', 1);
  SHOW SCHEMA;  SHOW MOLECULE TYPES;  SHOW HISTOGRAMS;
  ANALYZE;  ANALYZE state;          -- build planner histograms
  CHECKPOINT;                        -- durable snapshot (-data mode)
  EXPLAIN SELECT ...;  EXPLAIN (ESTIMATE) SELECT ...;
shell: \q quit, \save [path] snapshot, \stats counters`)
	case "\\stats":
		fmt.Println(db.Stats().Snapshot().String())
	case "\\save":
		path := defaultPath
		if len(fields) > 1 {
			path = fields[1]
		}
		if path == "" {
			fmt.Fprintln(os.Stderr, "error: \\save needs a path (no -db given)")
			return false
		}
		if err := storage.Save(db, path); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		} else {
			fmt.Printf("saved to %s\n", path)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %s (\\h for help)\n", fields[0])
	}
	return false
}
