package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"gisnav/internal/engine"
)

// span is one timed call recorded by the benchmark around a module's
// public function, or one EXPLAIN step returned by such a call. Spans of
// one operation share Trace, the id of the operation's root span.
type span struct {
	ID     int32  `json:"id"`
	Trace  int32  `json:"trace"`
	Parent int32  `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	Dur    int64  `json:"dur_ns"`
	Detail string `json:"detail,omitempty"`
	In     int    `json:"in,omitempty"`
	Out    int    `json:"out,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// newTrace opens a root span for one operation and returns its id; root
// finishes it.
func (t *tracer) newTrace() int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Trace: id, Parent: -1})
	return id
}

// root names and times the root span opened by newTrace.
func (t *tracer) root(id int32, name string, start time.Time, d time.Duration) {
	t.mu.Lock()
	s := &t.spans[id]
	s.Name, s.Start, s.Dur = name, start.Sub(t.origin).Nanoseconds(), d.Nanoseconds()
	t.mu.Unlock()
}

// span records one completed child span and returns its id.
func (t *tracer) span(trace, parent int32, name string, start time.Time, d time.Duration, detail string, in, out int) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Trace: trace, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), Dur: d.Nanoseconds(),
		Detail: detail, In: in, Out: out,
	})
	return id
}

// nestedSteps are EXPLAIN steps recorded inside the next "group" step's
// interval: the grouped kernel and a pyramid build.
var nestedSteps = map[string]bool{"group.agg": true, "tile.agg": true}

// steps records an EXPLAIN trace as child spans of parent, laid end to
// end from start in trace order. Steps that run inside the following
// "group" step become its children.
func (t *tracer) steps(trace, parent int32, start time.Time, ex *engine.Explain) {
	if ex == nil {
		return
	}
	at := start
	var pending []engine.Step
	for _, st := range ex.Steps {
		if nestedSteps[st.Op] {
			pending = append(pending, st)
			continue
		}
		id := t.span(trace, parent, st.Op, at, st.Duration, st.Detail, st.InRows, st.OutRows)
		if st.Op == "group" {
			inner := at
			for _, p := range pending {
				t.span(trace, id, p.Op, inner, p.Duration, p.Detail, p.InRows, p.OutRows)
				inner = inner.Add(p.Duration)
			}
			pending = nil
		}
		at = at.Add(st.Duration)
	}
	for _, p := range pending { // no enclosing group step: attach to parent
		t.span(trace, parent, p.Op, at, p.Duration, p.Detail, p.InRows, p.OutRows)
	}
}

// merge appends another tracer's spans, renumbered.
func (t *tracer) merge(o *tracer) {
	off := int32(len(t.spans))
	for _, s := range o.spans {
		s.ID += off
		s.Trace += off
		if s.Parent >= 0 {
			s.Parent += off
		}
		s.Start += o.origin.Sub(t.origin).Nanoseconds()
		t.spans = append(t.spans, s)
	}
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns the durations, in µs, of the spans accepted by keep.
func (t *tracer) durations(keep func(*span) bool) []float64 {
	var out []float64
	for i := range t.spans {
		if keep(&t.spans[i]) {
			out = append(out, float64(t.spans[i].Dur)/1e3)
		}
	}
	return out
}

func named(names ...string) func(*span) bool {
	return func(s *span) bool {
		for _, n := range names {
			if s.Name == n {
				return true
			}
		}
		return false
	}
}

// childTime returns, per span id, the summed duration of its direct
// children.
func (t *tracer) childTime() []int64 {
	sum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			sum[s.Parent] += s.Dur
		}
	}
	return sum
}

// parDegree reads the "[par N]" annotation the engine adds to a step's
// detail when it fanned the step out over N morsel workers.
func parDegree(detail string) int {
	i := strings.Index(detail, "[par ")
	if i < 0 {
		return 1
	}
	rest := detail[i+len("[par "):]
	j := strings.IndexByte(rest, ']')
	if j < 0 {
		return 1
	}
	n, err := strconv.Atoi(rest[:j])
	if err != nil {
		return 1
	}
	return n
}
