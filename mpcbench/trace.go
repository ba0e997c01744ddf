package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<operation>";
// the layer is the package whose public function the span wraps.
// Spans of one request (a query, or a batch job) share Req; spans
// outside any request carry Req −1.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // −1 for a root span
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer records spans and counts for one goroutine, in memory; the
// replay writes them out once it has finished. A disabled tracer
// records nothing, so the same replay code serves as the untraced
// baseline the tracing overhead is measured against.
type tracer struct {
	on     bool
	epoch  time.Time
	spans  []span
	stack  []int32
	req    int32
	counts map[string]float64
}

func newTracer(on bool, epoch time.Time) *tracer {
	return &tracer{on: on, epoch: epoch, req: -1, counts: make(map[string]float64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open span and returns its id
// (−1 when tracing is off).
func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	id := int32(len(t.spans))
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// closedUnder adds a finished span under span parent: a phase whose
// bounds were observed from other goroutines (see timedRouter).
func (t *tracer) closedUnder(parent int32, name string, start, end int64) {
	if !t.on || end < start {
		return
	}
	t.spans = append(t.spans, span{ID: int32(len(t.spans)), Parent: parent, Req: t.req, Name: name, Start: start, End: end})
}

// detached runs fn inside a new root span of the current request:
// work the benchmark adds for comparison, which the daemon never does,
// so it sits outside the request's span tree.
func (t *tracer) detached(name string, fn func()) {
	stack := t.stack
	t.stack = nil
	sp := t.begin(name)
	fn()
	t.end(sp)
	t.stack = stack
}

// count adds n to a named counter.
func (t *tracer) count(name string, n float64) {
	if t.on {
		t.counts[name] += n
	}
}

// max raises a named counter to at least v.
func (t *tracer) max(name string, v float64) {
	if t.on && v > t.counts[name] {
		t.counts[name] = v
	}
}

// mergeTraces concatenates per-goroutine span lists, renumbering ids
// so parents stay correct, and sums their counters.
func mergeTraces(ts []*tracer) ([]span, map[string]float64) {
	var spans []span
	counts := make(map[string]float64)
	for _, t := range ts {
		off := int32(len(spans))
		for _, s := range t.spans {
			s.ID += off
			if s.Parent >= 0 {
				s.Parent += off
			}
			spans = append(spans, s)
		}
		for k, v := range t.counts {
			counts[k] += v
		}
	}
	return spans, counts
}

// selfTimes returns each span's self time: its duration minus the
// part of its interval that its children cover. Children may overlap
// one another (phases observed from concurrent goroutines), so the
// covered part is the length of the union of their intervals, clipped
// to the parent's.
func selfTimes(spans []span) []int64 {
	children := make([][]int32, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	for i, s := range spans {
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered := int64(0)
		curLo, curHi := int64(0), int64(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
				continue
			}
			if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotals aggregates a trace by span name: call count, total
// duration, and total self time (ns).
type spanTotal struct {
	calls      int
	total, own int64
}

func spanTotals(spans []span) map[string]*spanTotal {
	self := selfTimes(spans)
	out := make(map[string]*spanTotal)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &spanTotal{}
			out[s.Name] = t
		}
		t.calls++
		t.total += s.End - s.Start
		t.own += self[i]
	}
	return out
}

// layerSelf sums self time (ns) per layer.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.layer()] += self[i]
	}
	return out
}

// writeSpans writes the trace as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close() // the encode error is the one worth reporting
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close() // the flush error is the one worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
