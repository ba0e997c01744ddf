package main

import (
	"fmt"
	"strings"
)

// metric is one named, unit-carrying figure.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// report collects what one run measured and every failure it saw.
// Failures are ops that errored, answered non-200, or failed a
// correctness gate; any failure makes the run incorrect.
type report struct {
	attempted int
	failed    int
	problems  []string
	e2e       []metric
	layer     []metric
	samples   []string // sample counts, printed with the end-to-end metrics
	spans     []span   // the traced replay's spans, written out at the end
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) addE2E(name string, v float64, unit string) {
	r.e2e = append(r.e2e, metric{name, v, unit})
}

func (r *report) addLayer(name string, v float64, unit string) {
	r.layer = append(r.layer, metric{name, v, unit})
}

func (r *report) sample(format string, args ...any) {
	r.samples = append(r.samples, fmt.Sprintf(format, args...))
}

// tally counts a phase's ops and fails each one that errored or did
// not answer 200.
func (r *report) tally(ops [][]liveOp, res [][]opResult) {
	for c := range ops {
		for i, op := range ops[c] {
			r.attempted++
			switch o := res[c][i]; {
			case o.err != nil:
				r.fail("op %d: %v", op.id, o.err)
			case o.status != 200:
				r.fail("op %d: status %d", op.id, o.status)
			}
		}
	}
}

// perCall is the mean duration (ms) of the spans called name.
func perCall(tot map[string]*spanTotal, name string) float64 {
	t := tot[name]
	if t == nil {
		return 0
	}
	return ratio(float64(t.total), float64(t.calls)) / 1e6
}

// totalMs is the summed duration (ms) of the spans called name.
func totalMs(tot map[string]*spanTotal, name string) float64 {
	if t := tot[name]; t != nil {
		return float64(t.total) / 1e6
	}
	return 0
}

// problemsText joins the recorded failures for stderr.
func (r *report) problemsText() string {
	return strings.Join(r.problems, "\n")
}
