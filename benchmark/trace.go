package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around the calls into that layer. It holds no
// pointers, so the collector never scans the span buffer.
type span struct {
	name   uint16 // index into tracer.names
	start  int64  // ns since the tracer's epoch
	end    int64
	parent int32 // index of the causing span, -1 for a root
	op     int32 // spans of one operation share its id
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run (and the untraced half of the
// traced run's operations) is expressed.
type tracer struct {
	epoch time.Time
	names []string
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its index, -1 on a nil tracer.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	id := 0
	for id < len(t.names) && t.names[id] != name {
		id++
	}
	if id == len(t.names) {
		t.names = append(t.names, name)
	}
	t.spans = append(t.spans, span{name: uint16(id), start: int64(time.Since(t.epoch)), parent: int32(parent), op: int32(op)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// selfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := max(spans[k].start, edge), min(spans[k].end, s.end)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// nameTotal is one row of the traced run's span summary.
type nameTotal struct {
	name            string
	count           int
	totalMs, selfMs float64
}

// summary adds up duration and self time per span name, in first-seen
// order.
func (t *tracer) summary() []nameTotal {
	out := make([]nameTotal, len(t.names))
	for i, n := range t.names {
		out[i].name = n
	}
	for i, self := range selfTimes(t.spans) {
		s := t.spans[i]
		out[s.name].count++
		out[s.name].totalMs += float64(s.end-s.start) / 1e6
		out[s.name].selfMs += float64(self) / 1e6
	}
	return out
}

// write stores the spans as dir/trace.json.
func (t *tracer) write(dir string) error {
	type jsonSpan struct {
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
		Parent int32  `json:"parent"`
		Op     int32  `json:"op"`
	}
	out := make([]jsonSpan, len(t.spans))
	for i, s := range t.spans {
		out[i] = jsonSpan{t.names[s.name], s.start, s.end, s.parent, s.op}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
