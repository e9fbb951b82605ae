// Command madbench regenerates the paper's evaluation artifacts: every
// figure (F1–F5), the Chapter-4 example queries (Q1, Q2) and the
// performance experiments (P1–P6): the paper's frozen reproduction
// record. The engine's benchmark is `bash benchmark/run.sh`.
//
// Usage:
//
//	madbench                 # run everything at scale 1
//	madbench -exp F2,Q2      # run selected experiments
//	madbench -scale 4        # larger workloads for the P-series
//	madbench -list           # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mad/internal/experiments"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiment IDs, or 'all'")
		scaleFlag = flag.Int("scale", 1, "workload scale factor for the P-series")
		listFlag  = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *listFlag {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	if *expFlag == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			id = strings.TrimSpace(id)
			e, ok := experiments.Lookup(strings.ToUpper(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "madbench: unknown experiment %q (try -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	for _, e := range selected {
		if err := e.Run(os.Stdout, *scaleFlag); err != nil {
			fmt.Fprintf(os.Stderr, "madbench: %s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
}
