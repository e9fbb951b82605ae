// Command madviz emits Graphviz DOT renderings of MAD schemas (the MAD
// diagram of Fig. 1), molecule structures (the type graphs of Fig. 2) and
// single molecule instances with shared subobjects highlighted.
//
// Usage:
//
//	madviz -geo                                  # schema of the sample DB
//	madviz -db snapshot.mad                      # schema of a snapshot
//	madviz -geo -structure "point-edge-(area-state, net-river)"
//	madviz -geo -structure "state-area-edge-point" -molecule 1
package main

import (
	"flag"
	"fmt"
	"os"

	"mad/internal/geo"
	"mad/internal/mql"
	"mad/internal/storage"
	"mad/internal/viz"
)

func main() {
	var (
		geoFlag    = flag.Bool("geo", false, "use the Fig. 1 geographic sample database")
		dbFlag     = flag.String("db", "", "load a database snapshot from this path")
		structFlag = flag.String("structure", "", "render a molecule structure instead of the schema")
		molFlag    = flag.Int("molecule", 0, "render the n-th molecule (1-based) of the structure")
	)
	flag.Parse()

	var db *storage.Database
	switch {
	case *dbFlag != "":
		loaded, err := storage.Load(*dbFlag)
		if err != nil {
			fatal(err)
		}
		db = loaded
	case *geoFlag:
		s, err := geo.BuildSample()
		if err != nil {
			fatal(err)
		}
		db = s.DB
	default:
		fmt.Fprintln(os.Stderr, "madviz: need -geo or -db (schema source)")
		os.Exit(2)
	}

	if *structFlag == "" {
		fmt.Print(viz.SchemaDOT(db))
		return
	}
	stmt, err := mql.Parse("SELECT ALL FROM " + *structFlag)
	if err != nil {
		fatal(err)
	}
	sel, ok := stmt.(*mql.SelectStmt)
	if !ok || sel.From.Struct == nil {
		fatal(fmt.Errorf("not a structure: %q", *structFlag))
	}
	desc, err := mql.BuildDesc(db, sel.From.Struct)
	if err != nil {
		fatal(err)
	}
	if *molFlag <= 0 {
		fmt.Print(viz.StructureDOT(desc))
		return
	}
	// Render the n-th molecule of the structure's occurrence.
	sess := mql.NewSession(db)
	res, err := sess.Exec("SELECT ALL FROM " + *structFlag + ";")
	if err != nil {
		fatal(err)
	}
	if *molFlag > len(res.Set) {
		fatal(fmt.Errorf("only %d molecule(s) derived", len(res.Set)))
	}
	fmt.Print(viz.MoleculeDOT(db, res.Set[*molFlag-1]))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "madviz: %v\n", err)
	os.Exit(1)
}
