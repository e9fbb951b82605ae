package main

import (
	"fmt"
	"sort"
)

// regressionBound is the share by which an end-to-end metric may worsen
// before a change counts as a regression, as recorded in BENCHMARK.json.
// It is the widest a driver accepts: on the two shared cores the
// benchmark was written on, whole batches of runs drifted by a tenth and
// more within minutes (README.md has the measurements).
const regressionBound = 0.25

// quartiles returns the first quartile, the median and the third quartile
// as Python's statistics.quantiles(v, n=4) computes them (the exclusive
// method), which is what the driver uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// printSpread prints, per workload and metric, the median, the quartiles
// and their distance as a share of the median over the sets run, and
// flags a spread above a third of the metric's bound: the workload is
// then too short or too small, the bound is not too tight.
func printSpread(values map[string]map[string][]float64, names []metric) {
	fmt.Printf("\n%-20s %-20s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "iqr/med")
	for _, w := range workloads {
		for _, m := range names {
			v := values[w.name][m.name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			flag := ""
			if spread > regressionBound/3 {
				flag = fmt.Sprintf("  ← above a third of the %.0f%% bound", 100*regressionBound)
			}
			fmt.Printf("%-20s %-20s %12.4f %12.4f %12.4f %7.2f%%%s\n", w.name, m.name, q1, q2, q3, 100*spread, flag)
		}
	}
}
