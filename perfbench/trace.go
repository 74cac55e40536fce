package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the program:
// its name, interval, the span that caused it and the op it belongs to.
type span struct {
	name       string
	op, parent int
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced replay runs the same code. Calls come
// from one goroutine at a time (the replay waits for the job goroutine it
// hands work to), so a stack tracks the current parent; the mutex only
// orders those hand-offs for the race detector.
type tracer struct {
	mu    sync.Mutex
	op    int
	spans []span
	stack []int
}

// setOp starts attributing spans to op.
func (t *tracer) setOp(op int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: time.Now()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = now
	t.stack = t.stack[:len(t.stack)-1]
}

// record adds an already finished interval as a child of the innermost open
// span (e.g. a job's queue wait, known only once the job starts running).
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, op: t.op, parent: parent, start: start, end: end})
}

// selfByOp sums each span's self time — its duration minus what its child
// spans cover — per (layer name, op), in milliseconds.
func (t *tracer) selfByOp() map[string]map[int]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end.Sub(s.start)
		}
	}
	out := map[string]map[int]float64{}
	for i, s := range t.spans {
		m := out[s.name]
		if m == nil {
			m = map[int]float64{}
			out[s.name] = m
		}
		m[s.op] += ms(s.end.Sub(s.start) - child[i])
	}
	return out
}

// layerMedian is the per-op median self time of one layer over the ops
// where it ran, with the op count.
func layerMedian(self map[string]map[int]float64, name string) (float64, int) {
	m := self[name]
	xs := make([]float64, 0, len(m))
	for _, v := range m {
		xs = append(xs, v)
	}
	return median(xs), len(xs)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
