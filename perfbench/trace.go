package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run's span recorder. Spans are taken at the benchmark's own
// call boundaries, around calls into each layer's public functions; they
// are kept in memory and written out when the run ends. A nil *tracer is
// the untraced run: every method is a no-op.

type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the parent span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0 time.Time
	// root is the current op's root span, set by the closed-loop runner
	// (whose single caller is the only goroutine that reads it).
	root int

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return len(t.spans) - 1
}

// child opens a span under the current op's root span.
func (t *tracer) child(name string, op int) int {
	if t == nil {
		return -1
	}
	return t.begin(name, op, t.root)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
}

// record adds an already-timed span (for intervals measured on another
// goroutine, such as a request's client side).
func (t *tracer) record(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return len(t.spans) - 1
}

// timeN runs fn reps times inside one span and returns the mean time per
// call, for calls too short to time one by one.
func (t *tracer) timeN(name string, op, parent, reps int, fn func() error) (time.Duration, error) {
	id := t.begin(name, op, parent)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			t.end(id)
			return 0, err
		}
	}
	d := time.Since(start)
	t.end(id)
	return d / time.Duration(reps), nil
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	Median float64 `json:"median_us"`
	Total  float64 `json:"total_ms"`
	Self   float64 `json:"self_ms"`
}

// snapshot copies every span; a span's id is its index.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// closed returns the spans that were ended.
func (t *tracer) closed() []span {
	var out []span
	for _, s := range t.snapshot() {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// medianOf returns the median duration of the spans named name in the
// given unit (0 when there are none).
func (t *tracer) medianOf(name string, unit time.Duration) float64 {
	ds := t.durations(name)
	if len(ds) == 0 {
		return 0
	}
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// table computes the per-name layer table. A span's self time is its
// duration minus the part of its interval that its child spans cover.
func (t *tracer) table() []layerRow {
	all := t.snapshot()
	children := make([][]span, len(all))
	for _, s := range all {
		if s.End >= 0 && s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	durs := map[string][]float64{}
	for i, s := range all {
		if s.End < 0 {
			continue
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.dur()
		r.Calls++
		r.Total += float64(d) / 1e6
		r.Self += float64(d-covered(s, children[i])) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(d)/1e3)
	}
	out := make([]layerRow, 0, len(rows))
	for name, r := range rows {
		r.Median = median(durs[name])
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// writeTable prints the layer table.
func writeTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-34s %8s %12s %12s %12s\n", "span", "calls", "median_us", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %8d %12.2f %12.2f %12.2f\n", r.Name, r.Calls, r.Median, r.Total, r.Self)
	}
}

// dump writes every span as one JSON line (a span's id is its line
// number, counting from 0), followed by the layer table.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	for _, r := range t.table() {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
