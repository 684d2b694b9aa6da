package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// span is one timed call the harness made into a layer. Spans live in
// memory until the run ends. Parent is the index of the span that caused
// this one (-1 for a root); Req groups the spans of one request — a
// service round in process, a play on the socket.
type span struct {
	Name   string
	Layer  string
	Parent int
	Req    int
	Start  int64 // ns on the run clock
	End    int64
	Count  int // calls aggregated into this span (1 for a single call)
}

// tracer records spans from the harness's side of each layer boundary;
// the program under test is not instrumented. A nil tracer records
// nothing, which is how untraced runs call the same code.
type tracer struct{ spans []span }

// newTracer sizes the span store for about the given number of spans.
func newTracer(spans int) *tracer { return &tracer{spans: make([]span, 0, spans)} }

// add records a finished span and returns its index for use as a parent.
func (t *tracer) add(name, layer string, parent, req int, start, end int64, count int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name, layer, parent, req, start, end, count})
	return len(t.spans) - 1
}

// setEnd closes a span that was added before its children ran.
func (t *tracer) setEnd(i int, end int64) {
	if t != nil && i >= 0 {
		t.spans[i].End = end
	}
}

// write emits the spans in the Chrome trace-event format, which
// chrome://tracing and ui.perfetto.dev open directly. Each layer is one
// track (tid); args carry the span's own index, its parent and request.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	tids := map[string]int{}
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	sep := ""
	emit := func(ev map[string]any) {
		b, _ := json.Marshal(ev) // maps of strings and numbers cannot fail
		w.WriteString(sep)
		w.Write(b)
		sep = ",\n"
	}
	for i, s := range t.spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
			emit(map[string]any{
				"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]string{"name": s.Layer},
			})
		}
		emit(map[string]any{
			"name": s.Name, "cat": s.Layer, "ph": "X", "pid": 1, "tid": tid,
			"ts":  float64(s.Start) / 1e3,
			"dur": float64(s.End-s.Start) / 1e3,
			"args": map[string]int{
				"id": i, "parent": s.Parent, "req": s.Req, "count": s.Count,
			},
		})
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
