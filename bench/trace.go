package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// OpID; Parent indexes the span that caused this one (-1 for an op's root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	OpID   int    `json:"op_id"`
}

// tracer records spans in memory, from the benchmark's side of each layer
// call, and writes them out when the run ends. A nil *tracer records
// nothing, so the timed pass and the traced pass share one code path.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	rows  []string // op id -> the op's pipeline row
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op opens a new op on the given pipeline row and returns its id.
func (t *tracer) op(row string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = append(t.rows, row)
	return len(t.rows) - 1
}

// begin opens a span; the returned id is passed to end and used as the
// parent of child spans.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, OpID: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child records a span whose duration the program reported itself
// (RunResponse.run_ms, a compile-phase trace): it is placed at offset
// into its parent, since only its length is known.
func (t *tracer) child(name string, parent int, offset, length time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	start := p.Start + int64(offset)
	t.spans = append(t.spans, span{Name: name, Start: start, End: start + int64(length), Parent: parent, OpID: p.OpID})
}

// layerTime is one row of the self-time report.
type layerTime struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// selfTimes sums, per span name, the span durations and the self time: a
// span's duration minus the part of it its children cover. Children of one
// parent are sequential here, so covered time is their summed length
// clipped to the parent.
func (t *tracer) selfTimes() []layerTime {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			p := t.spans[s.Parent]
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				covered[s.Parent] += hi - lo
			}
		}
	}
	byName := map[string]*layerTime{}
	for i, s := range t.spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += time.Duration(d)
		lt.Self += time.Duration(max(d-covered[i], 0))
	}
	out := make([]layerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// durations returns the lengths in ms of the spans called name, grouped by
// the pipeline row of their op.
func (t *tracer) durations(name string) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			row := t.rows[s.OpID]
			out[row] = append(out[row], float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// report prints the self-time table.
func (t *tracer) report(w io.Writer) {
	rows := t.selfTimes()
	var all time.Duration
	for _, lt := range rows {
		all += lt.Self
	}
	fmt.Fprintf(w, "  %-28s %7s %12s %12s %7s\n", "span", "count", "total ms", "self ms", "share")
	for _, lt := range rows {
		fmt.Fprintf(w, "  %-28s %7d %12.2f %12.2f %7.3f\n", lt.Name, lt.Count,
			float64(lt.Total)/1e6, float64(lt.Self)/1e6, float64(lt.Self)/float64(max(all, 1)))
	}
}

// write stores the spans as JSON: {"ops": [row per op id], "spans": [...]}.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Ops   []string `json:"ops"`
		Spans []span   `json:"spans"`
	}{t.rows, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
