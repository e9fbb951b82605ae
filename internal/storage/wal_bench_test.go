package storage

// BenchmarkP14GroupCommit measures the group-commit win: 16 concurrent
// committers against a log whose fsync costs a modelled disk latency
// (~1ms, injected via a sleeping walFile so the numbers do not depend on
// how fast the CI filesystem's real fsync happens to be). The naive
// variant fsyncs after every record (syncEachWrite); the group variant
// lets the single flusher acknowledge a whole batch per fsync. The
// commits/s ratio is the headline number the bench trajectory tracks.

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"mad/internal/model"
)

// benchFS models a disk with a fixed fsync latency.
type benchFS struct{ syncLatency time.Duration }

func (bf benchFS) open(path string) (walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return benchFile{f: f, lat: bf.syncLatency}, nil
}

type benchFile struct {
	f   *os.File
	lat time.Duration
}

func (bf benchFile) Write(p []byte) (int, error) { return bf.f.Write(p) }
func (bf benchFile) Sync() error {
	time.Sleep(bf.lat)
	return bf.f.Sync()
}
func (bf benchFile) Close() error { return bf.f.Close() }

func benchCommits(b *testing.B, naive bool) {
	const writers = 16
	dir := b.TempDir()
	open := benchFS{syncLatency: time.Millisecond}.open
	each := &syncEachWrite{open: open}
	if naive {
		open = each.openFile
	}
	db, err := openWith(dir, open)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	d := model.MustDesc(model.AttrDesc{Name: "n", Kind: model.KInt})
	if _, err := db.DefineAtomType("t", d); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	start := time.Now()
	var wg sync.WaitGroup
	var next int64
	var mu sync.Mutex
	take := func() (int64, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(b.N) {
			return 0, false
		}
		next++
		return next, true
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n, ok := take()
				if !ok {
					return
				}
				if _, err := db.InsertAtom("t", model.Int(n)); err != nil {
					b.Error(fmt.Errorf("insert: %w", err))
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "commits/s")
	appends, syncs := db.WALCounters()
	if naive {
		syncs = each.syncs.Load()
	}
	if syncs > 0 {
		b.ReportMetric(float64(appends)/float64(syncs), "appends/fsync")
	}
}

func BenchmarkP14GroupCommit(b *testing.B) {
	b.Run("group", func(b *testing.B) { benchCommits(b, false) })
	b.Run("naive", func(b *testing.B) { benchCommits(b, true) })
}
