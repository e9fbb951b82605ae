// Command benchmark is the wire-to-storage MQL benchmark: it boots the
// server on a loopback port in its own process, drives it in a closed
// loop with its own wire client, checks every answer against the naive
// derivation and prints every metric by name and unit. README.md says
// what is measured and why; BENCHMARK.json at the repository root is the
// contract a driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// metric is a named measurement. The two lists are the contract in
// BENCHMARK.json; the smoke test keeps them equal to it.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"stmts_per_s", "1/s"},
	{"stmt_p50_ms", "ms"},
	{"first_chunk_p50_ms", "ms"},
	{"molecules_per_s", "1/s"},
}

var perLayer = []metric{
	{"server.wire_us", "us"},
	{"server.chunks_per_stmt", "count"},
	{"server.bytes_per_stmt", "B"},
	{"mql.parse_us", "us"},
	{"plan.compile_us", "us"},
	{"plan.cache_hit_ratio", "ratio"},
	{"plan.exec_ms", "ms"},
	{"core.derive_us_per_molecule", "us"},
	{"expr.eval_us_per_molecule", "us"},
	{"mql.render_us_per_molecule", "us"},
	{"mql.exec_ms", "ms"},
	{"storage.atom_fetches_per_molecule", "count"},
	{"storage.links_per_stmt", "count"},
	{"storage.index_lookups_per_stmt", "count"},
	{"storage.commit_us", "us"},
	{"storage.appends_per_fsync", "ratio"},
	{"storage.fsyncs_per_commit", "ratio"},
	{"storage.wal_bytes_per_user_byte", "ratio"},
	{"storage.auto_checkpoints", "count"},
	{"allocs_per_stmt", "count"},
	{"alloc_kb_per_stmt", "kB"},
	{"trace_overhead_ratio", "ratio"},
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func toResult(rep *report, names []metric) result {
	r := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, m := range names {
		r.Metrics[m.name] = metricValue{rep.metrics[m.name], m.unit}
	}
	return r
}

func main() {
	var (
		name    = flag.String("workload", "", "run this workload in this process; empty runs every workload, each in a child process")
		seed    = flag.Int64("seed", 1, "seed of the generated data and statement order")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics instead")
		repeat  = flag.Int("repeat", 1, "run this many sets, each with the next seed, and print the spread of every end-to-end metric")
		outDir  = flag.String("out", "", "directory for traces and scratch databases (default: out/ in the benchmark's directory)")
	)
	flag.Parse()
	if *outDir == "" {
		// Run from the root of the checkout (run.sh) or from benchmark/.
		*outDir = "out"
		if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
			*outDir = "benchmark/out"
		}
	}
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *repeat, *outDir))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, sc: fullScale, outDir: *outDir}
	var (
		rep   *report
		names = endToEnd
		err   error
	)
	if *trace == 1 {
		rep, err = runTraced(cfg)
		names = perLayer
	} else {
		rep, err = runWorkload(cfg)
	}
	if err != nil {
		fatal(err)
	}
	printReport(rep, names)
	line, err := json.Marshal(toResult(rep, names))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}

// printReport is the human-readable part of a run's output.
func printReport(rep *report, names []metric) {
	fmt.Printf("== %s (seed %d): %d statements attempted, %d failed\n", rep.workload, rep.seed, rep.attempted, rep.failed)
	for _, m := range names {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, rep.metrics[m.name], m.unit)
	}
	if rep.samples > 0 {
		fmt.Printf("  %-36s %14.4f ms   (not gated: p%.3f of %d samples)\n", "stmt_tail_ms", rep.tailMs, rep.tailPct, rep.samples)
		fmt.Printf("  %-36s %14.1f MB   (not gated)\n", "peak_rss_mb", rep.peakRSSMb)
		var ts []string
		for t := range rep.templateP50Ms {
			ts = append(ts, t)
		}
		sort.Strings(ts)
		for _, t := range ts {
			fmt.Printf("  %-36s %14.4f ms\n", "p50 of "+t, rep.templateP50Ms[t])
		}
	}
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
}

// runAll runs every workload in a fresh child process of this program,
// so that one workload's heap and peak RSS are not the next one's, and
// prints the results as a table and as JSON, one object per workload.
func runAll(seed int64, seconds float64, trace, repeat int, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	names := endToEnd
	if trace == 1 {
		names = perLayer
	}
	status := 0
	values := make(map[string]map[string][]float64) // workload → metric → one value per set
	var objects []map[string]any
	for set := 0; set < repeat; set++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(set)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s printed no result: %v\n", w.name, err)
				status = 1
				continue
			}
			if err != nil || !res.Correct {
				status = 1
			}
			if values[w.name] == nil {
				values[w.name] = make(map[string][]float64)
			}
			for _, m := range names {
				values[w.name][m.name] = append(values[w.name][m.name], res.Metrics[m.name].Value)
			}
			objects = append(objects, map[string]any{"workload": w.name, "seed": seed + int64(set), "result": res})
		}
	}
	if repeat > 1 {
		printSpread(values, names)
	}
	block, err := json.MarshalIndent(objects, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(block))
	return status
}
