package core

import (
	"fmt"
	"strings"
	"time"
)

// Phase is one stage of a molecule-type operation. Figure 5 of the paper
// factors every operation into operation-specific actions, the propagation
// of the result set, and a closing molecule-type definition α; traces make
// that anatomy observable (experiment F5).
type Phase struct {
	Name string
	Note string
	Dur  time.Duration
}

// OpTrace records the phases of one molecule-type operation. A nil
// *OpTrace disables tracing at zero cost.
type OpTrace struct {
	Op     string
	Phases []Phase
}

// begin stamps the start of a phase; call the returned func to close it.
func (t *OpTrace) begin(name string) func(note string) {
	if t == nil {
		return func(string) {}
	}
	start := time.Now()
	return func(note string) {
		t.Phases = append(t.Phases, Phase{Name: name, Note: note, Dur: time.Since(start)})
	}
}

// setOp records which operation the trace belongs to.
func (t *OpTrace) setOp(op string) {
	if t != nil {
		t.Op = op
	}
}

// String renders the trace as the Fig. 5 pipeline.
func (t *OpTrace) String() string {
	if t == nil {
		return "<no trace>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", t.Op)
	for _, p := range t.Phases {
		fmt.Fprintf(&b, "  %-28s %-40s %s\n", p.Name, p.Note, p.Dur.Round(time.Microsecond))
	}
	return b.String()
}
