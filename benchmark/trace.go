package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call; probes inside the engine are a later change.
// Times are nanoseconds since the trace began. Spans of one statement
// share its number; Parent is the index of the span that caused this one,
// -1 at the top.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Stmt   int    `json:"stmt"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, stmt int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Stmt: stmt, Start: int64(time.Since(t.epoch))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.epoch)) }

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered[i])
	}
	return self
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
