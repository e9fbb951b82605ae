package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mad/internal/model"
	"mad/internal/plan"
	"mad/internal/server"
	"mad/internal/storage"
)

// setups is how many times a run sets the system up; setup_s is the
// median, so one slow allocation or page fault does not move it.
const setups = 3

// Durable-database policy of the commit-mix workloads, stated with the
// results and never varied: the default group-commit flusher with fsync
// on, a checkpoint once the live log passes autoCheckpointBytes, and a
// vacuum sweep every vacuumInterval.
const (
	autoCheckpointBytes = 128 << 10
	vacuumInterval      = 100 * time.Millisecond
)

// config is one run of one workload.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	sc       scale
	outDir   string // traces and durable databases live here
}

// instance is a system set up and serving: database, server, one
// connected and warmed-up client per connection plan.
type instance struct {
	shop       *shop
	srv        *server.Server
	served     chan error
	addr       string
	clients    []*wireClient
	dir        string // durable database directory, "" in memory
	stopVacuum func() // nil in memory
	commits    int    // transactions acknowledged on this database
}

// sample is one measured statement.
type sample struct {
	tmpl      int
	ok        bool
	first     time.Duration
	total     time.Duration
	molecules int
	chunks    int
	bytes     int
}

// connResult is what one connection measured.
type connResult struct {
	samples []sample
	elapsed time.Duration
	failed  int
	errs    []string // the first few failures, for the report
}

func (r *connResult) fail(st stmt, err error) {
	r.failed++
	if len(r.errs) < 3 {
		r.errs = append(r.errs, fmt.Sprintf("%.80s: %v", st.text, err))
	}
}

// open builds the workload's database and starts a server on a loopback
// port.
func open(cfg config, attempt int) (*instance, error) {
	in := &instance{}
	var err error
	if cfg.workload.durable {
		in.dir = filepath.Join(cfg.outDir, fmt.Sprintf("%s-%d-%d", cfg.workload.name, os.Getpid(), attempt))
		if err := os.RemoveAll(in.dir); err != nil {
			return nil, err
		}
		if in.shop, err = openDurableShop(in.dir, cfg.seed, cfg.sc); err != nil {
			return nil, err
		}
		if err := in.shop.db.SetAutoCheckpoint(autoCheckpointBytes); err != nil {
			return nil, err
		}
		in.stopVacuum = in.shop.db.StartVacuum(vacuumInterval)
	} else if in.shop, err = buildShop(cfg.seed, cfg.sc); err != nil {
		return nil, err
	}
	in.srv = server.New(in.shop.db)
	addr, err := in.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.addr = addr.String()
	in.served = make(chan error, 1)
	go func() { in.served <- in.srv.Serve() }()
	return in, nil
}

// close tears the instance down and waits for the server's goroutines.
// A durable database is closed without a checkpoint, so that what the
// directory holds is the log as the commits left it.
func (in *instance) close() error {
	for _, c := range in.clients {
		c.close()
	}
	err := in.srv.Close()
	if serr := <-in.served; err == nil {
		err = serr
	}
	if in.stopVacuum != nil {
		in.stopVacuum()
	}
	plan.Release(in.shop.db)
	if cerr := in.shop.db.Close(); err == nil {
		err = cerr
	}
	if in.dir != "" {
		if qerr := quiesce(in.dir); err == nil {
			err = qerr
		}
	}
	return err
}

// quiesce waits until nothing writes to a closed database's directory any
// more. Database.Close does not wait for an auto-checkpoint in flight: its
// goroutine goes on to rename the checkpoint file and delete the segments
// below it, and a Recover (or a RemoveAll) racing with that sees a
// directory no crash could leave. The directory is quiet when it holds no
// temporary file and three listings 50 ms apart are the same.
func quiesce(dir string) error {
	last, same := "", 0
	for start := time.Now(); time.Since(start) < 10*time.Second; time.Sleep(50 * time.Millisecond) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		var listing strings.Builder
		busy := false
		for _, e := range entries {
			info, err := e.Info()
			if err != nil || strings.HasSuffix(e.Name(), ".tmp") {
				busy = true // deleted since the listing, or being written
				continue
			}
			fmt.Fprintf(&listing, "%s %d\n", e.Name(), info.Size())
		}
		if busy || listing.String() != last {
			last, same = listing.String(), 0
		} else if same++; same == 2 {
			return nil
		}
	}
	return fmt.Errorf("%s is still being written 10 s after Close", dir)
}

// connect dials one client per plan, sends its init statements and its
// warm-up rotations: afterwards the plan cache is filled, the feedback
// store calibrated and the residual order settled, and nothing of it is
// in a sample. Warm-up answers are checked like any other.
func (in *instance) connect(w workload, plans []connPlan) error {
	errs := make([]error, len(plans))
	in.clients = make([]*wireClient, len(plans))
	var wg sync.WaitGroup
	for c, p := range plans {
		cl, err := dialWire(in.addr)
		if err != nil {
			return err
		}
		in.clients[c] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, text := range p.init {
				if resp, err := cl.do(text); err != nil || resp.remote != "" {
					errs[c] = fmt.Errorf("%s: %v %s", text, err, resp.remote)
					return
				}
			}
			var r connResult
			for k := 0; k < w.warm*len(p.rotation); k++ {
				if s := in.exchange(cl, p.at(k), &r); !s.ok {
					errs[c] = fmt.Errorf("warm-up: %s", r.errs[0])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// exchange sends one statement, checks the answer and returns the sample.
func (in *instance) exchange(cl *wireClient, st stmt, r *connResult) sample {
	resp, err := cl.do(st.text)
	s := sample{tmpl: st.tmpl, first: resp.first, total: resp.total, chunks: resp.chunks, bytes: len(resp.body)}
	switch {
	case err != nil:
		r.fail(st, err)
	case resp.remote != "":
		r.fail(st, fmt.Errorf("ERR %s", resp.remote))
	default:
		if s.molecules, err = st.want.check(resp.body); err != nil {
			r.fail(st, err)
			break
		}
		s.ok = true
		if st.txn != nil {
			in.commits++ // one connection commits, so nothing races
		}
	}
	return s
}

// measure runs every connection's closed loop — the next statement goes
// out when the previous answer has been read and checked — in whole
// rotations for at least the given time. Whole rotations keep the mix of
// statements the same in every run.
func (in *instance) measure(w workload, plans []connPlan, seconds float64) []connResult {
	results := make([]connResult, len(plans))
	var wg sync.WaitGroup
	for c, p := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[c]
			k := w.warm * len(p.rotation)
			start := time.Now()
			for r.elapsed.Seconds() < seconds {
				for range p.rotation {
					r.samples = append(r.samples, in.exchange(in.clients[c], p.at(k), r))
					k++
				}
				r.elapsed = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return results
}

// report is the outcome of one run of one workload; the run is correct
// when no operation failed.
type report struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	metrics   map[string]float64
	// Printed and not gated: tails and memory do not repeat within a
	// tenth on two shared cores.
	tailMs        float64
	tailPct       float64
	samples       int
	peakRSSMb     float64
	templateP50Ms map[string]float64
	notes         []string
}

// runWorkload sets the system up (setups times, keeping the last), runs
// the measured window and checks what the window leaves behind.
func runWorkload(cfg config) (*report, error) {
	w := cfg.workload
	if err := w.fits(); err != nil {
		return nil, err
	}
	var (
		in      *instance
		plans   []connPlan
		setupTs []float64
	)
	for attempt := 0; attempt < setups; attempt++ {
		if in != nil {
			if err := in.discard(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if in, err = open(cfg, attempt); err != nil {
			return nil, err
		}
		var oracleTime time.Duration
		if plans == nil {
			// The expected answers are the benchmark's own work, not the
			// system's: they are computed once and kept out of setup_s.
			// The same seed builds the same database every time.
			t := time.Now()
			plans, err = w.plans(in.shop, newOracle(in.shop.db), rand.New(rand.NewSource(cfg.seed+1)))
			if err != nil {
				in.discard()
				return nil, err
			}
			oracleTime = time.Since(t)
		}
		if err := in.connect(w, plans); err != nil {
			in.discard()
			return nil, err
		}
		setupTs = append(setupTs, (time.Since(start) - oracleTime).Seconds())
	}
	runtime.GC() // the discarded set-ups' garbage is not the window's to collect
	results := in.measure(w, plans, cfg.seconds)
	rep := summarize(w, plans, results)
	rep.seed = cfg.seed
	rep.metrics["setup_s"] = median(setupTs)
	rep.peakRSSMb = readPeakRSSMb()
	if w.durable {
		note, err := in.checkDurable()
		if err != nil {
			rep.failed++
			rep.notes = append(rep.notes, "durability: "+err.Error())
		} else {
			rep.notes = append(rep.notes, note)
		}
	} else if err := in.discard(); err != nil {
		return nil, err
	}
	return rep, nil
}

// fits refuses a workload with more client connections than CPUs: the
// load generator shares the machine with the server it measures.
func (w workload) fits() error {
	if w.clients > runtime.NumCPU() {
		return fmt.Errorf("%s wants %d client connections, the machine has %d CPUs", w.name, w.clients, runtime.NumCPU())
	}
	return nil
}

// discard closes the instance and removes its directory.
func (in *instance) discard() error {
	err := in.close()
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// checkDurable closes the database without a checkpoint, recovers the
// directory and verifies that every acknowledged transaction is there
// whole: its asm by code, and two units for each asm found.
func (in *instance) checkDurable() (string, error) {
	db := in.shop.db
	appends, syncs := db.WALCounters()
	ckpts := db.AutoCheckpoints()
	if err := in.close(); err != nil {
		return "", err
	}
	defer os.RemoveAll(in.dir)
	rec, err := storage.Recover(in.dir)
	if err != nil {
		return "", fmt.Errorf("recover: %w", err)
	}
	// Every transaction sent was acknowledged before the next went out, so
	// the recovered codes must be exactly W0 … W<commits-1>.
	var missing []int
	for n := 0; n < in.commits; n++ {
		switch ids, _ := rec.IndexLookup("asm", "code", model.Str(fmt.Sprintf("W%d", n))); len(ids) {
		case 1:
		case 0:
			missing = append(missing, n)
		default:
			return "", fmt.Errorf("transaction %d recovered %d times", n, len(ids))
		}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("%d transactions acknowledged, %d not recovered: W%d … W%d",
			in.commits, len(missing), missing[0], missing[len(missing)-1])
	}
	units, err := rec.CountAtoms("unit")
	if err != nil {
		return "", err
	}
	if want := len(in.shop.asm)*in.shop.sc.unitsPer + 2*in.commits; units != want {
		return "", fmt.Errorf("%d units recovered beside %d transactions, want %d: a transaction is partly present", units, in.commits, want)
	}
	return fmt.Sprintf("durability: %d acknowledged transactions all recovered whole from the log "+
		"(%d appends, %d fsyncs, %d auto-checkpoints; fsync on, group commit; the cost of fsync is this sandbox's file system, not a device's)",
		in.commits, appends, syncs, ckpts), nil
}

// summarize turns the measured connections' samples into the metrics.
func summarize(w workload, plans []connPlan, results []connResult) *report {
	rep := &report{workload: w.name, metrics: make(map[string]float64), templateP50Ms: make(map[string]float64)}
	for _, r := range results {
		rep.attempted += len(r.samples)
		rep.failed += r.failed
		rep.notes = append(rep.notes, r.errs...)
	}
	if w.durable {
		// The committing connection's figures, whichever side is measured.
		var commits []float64
		for _, s := range results[0].samples {
			if s.ok && s.tmpl == 0 {
				commits = append(commits, ms(s.total))
			}
		}
		rep.notes = append(rep.notes, fmt.Sprintf("commits_per_s %.4f 1/s, commit_p50_ms %.4f ms (not gated here; commit-mix-writer gates them as its statement metrics)",
			float64(len(commits))/results[0].elapsed.Seconds(), median(commits)))
	}
	var (
		stmtsPerS, molsPerS float64
		totals, firsts      = map[int][]float64{}, map[int][]float64{}
		all                 []float64
		slots               = map[int]int{} // rotation slots per template over the measured connections
		nSlots              int
	)
	for _, c := range w.measured {
		r := results[c]
		okN, mols := 0, 0
		for _, s := range r.samples {
			if !s.ok {
				continue // a failed operation has no latency; it counts against the attempts
			}
			okN++
			mols += s.molecules
			totals[s.tmpl] = append(totals[s.tmpl], ms(s.total))
			firsts[s.tmpl] = append(firsts[s.tmpl], ms(s.first))
			all = append(all, ms(s.total))
		}
		stmtsPerS += float64(okN) / r.elapsed.Seconds()
		molsPerS += float64(mols) / r.elapsed.Seconds()
		for _, t := range plans[c].rotation {
			slots[t]++
			nSlots++
		}
	}
	// The statement median is taken per template and averaged by the
	// templates' share of the rotation: the median of the pooled samples
	// would sit on the boundary between a cheap and a dear template and
	// jump from one to the other between runs.
	var p50, first50 float64
	for t, n := range slots {
		share := float64(n) / float64(nSlots)
		p50 += share * median(totals[t])
		first50 += share * median(firsts[t])
		rep.templateP50Ms[w.templates[t]] = median(totals[t])
	}
	rep.metrics["stmts_per_s"] = stmtsPerS
	rep.metrics["molecules_per_s"] = molsPerS
	rep.metrics["stmt_p50_ms"] = p50
	rep.metrics["first_chunk_p50_ms"] = first50
	rep.samples = len(all)
	// The highest percentile with at least ten samples beyond it.
	if sort.Float64s(all); len(all) > 10 {
		rep.tailMs = all[len(all)-11]
		rep.tailPct = 100 * float64(len(all)-10) / float64(len(all))
	}
	return rep
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of the values; 0 for none (every sample of a template failed).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// readPeakRSSMb reads the process's resident-set high-water mark.
func readPeakRSSMb() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
