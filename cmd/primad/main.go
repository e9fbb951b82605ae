// Command primad serves a MAD database over TCP — PRIMA as a server
// process: molecule processing with an MQL interface on top of the
// atom-oriented storage layer (Chapter 5 of the paper).
//
// Usage:
//
//	primad -addr 127.0.0.1:7227 -geo          # serve the Fig. 1 sample
//	primad -addr :7227 -db snapshot.mad       # serve a snapshot
//
// Protocol (see internal/server): "REQ <n>\n"+payload in,
// "OK|ERR <n>\n"+payload out. The molshell counterpart is left as a
// library client (server.Dial / Client.Exec).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mad/internal/geo"
	"mad/internal/server"
	"mad/internal/storage"
)

func main() {
	var (
		addrFlag = flag.String("addr", "127.0.0.1:7227", "listen address")
		geoFlag  = flag.Bool("geo", false, "serve the Fig. 1 geographic sample database")
		dbFlag   = flag.String("db", "", "serve a database snapshot")
		saveFlag = flag.String("save", "", "write a snapshot to this path on shutdown")
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
		db = storage.NewDatabase()
	}

	srv := server.New(db)
	addr, err := srv.Listen(*addrFlag)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("primad listening on %s (%d atoms, %d links)\n",
		addr, db.TotalAtoms(), db.TotalLinks())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Println("\nprimad: shutting down")
		srv.Close()
	}()

	if err := srv.Serve(); err != nil {
		fatal(err)
	}
	if *saveFlag != "" {
		if err := storage.Save(db, *saveFlag); err != nil {
			fatal(err)
		}
		fmt.Printf("primad: snapshot written to %s\n", *saveFlag)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "primad: %v\n", err)
	os.Exit(1)
}
