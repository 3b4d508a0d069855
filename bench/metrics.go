package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// manifest is BENCHMARK.json: the one place metric names, units and bounds
// are written down. The benchmark reads it to label what it emits and
// refuses to emit a name it does not list.
type manifest struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []metricDef                  `json:"end_to_end"`
	PerLayer  []metricDef                  `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(root string) (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// metric is one value of a result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last on standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// label turns measured values into a result's metrics: every name in defs
// appears, 0 where the workload does not exercise that layer; a measured
// name missing from defs is an error in the benchmark.
func label(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q is not listed in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// ops collects the latencies and outcomes of one pass. Rows are the
// pipelines of the workload (cold pools its specs as one row). Latencies
// are kept as measured; the end-to-end metrics scale them to the reference
// machine speed (see calib.go).
type ops struct {
	speed     speedometer
	mu        sync.Mutex
	lat       map[string][]float64 // row -> op latencies as measured, ms
	attempted int
	failed    int // non-200, transport error or refused
	wrong     int // output differs from the expected output
	notes     []string
}

func newOps() *ops { return &ops{lat: map[string][]float64{}} }

// run performs one op on the given row: f does the work and returns the
// latency it measured. A failed op (refused, non-200, transport error) is
// counted and has no latency. run reports whether the op succeeded.
func (o *ops) run(row string, f func() (time.Duration, error)) bool {
	o.speed.enter()
	lat, err := f()
	o.speed.leave()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failed++
		o.note("%s: failed: %v", row, err)
		return false
	}
	o.lat[row] = append(o.lat[row], float64(lat)/1e6)
	return true
}

// finish ends the pass with a last calibration, so that its final ops have
// a kernel time after them as well as before.
func (o *ops) finish() { o.speed.sample(true) }

// mismatch records a wrong output.
func (o *ops) mismatch(format string, args ...any) {
	o.mu.Lock()
	o.wrong++
	o.note("wrong output: "+format, args...)
	o.mu.Unlock()
}

// note keeps the first few diagnostics; the caller holds o.mu.
func (o *ops) note(format string, args ...any) {
	if len(o.notes) < 8 {
		o.notes = append(o.notes, fmt.Sprintf(format, args...))
	}
}

// rowMedians returns each row's median latency as measured.
func (o *ops) rowMedians() map[string]float64 {
	out := make(map[string]float64, len(o.lat))
	for row, v := range o.lat {
		out[row] = median(v)
	}
	return out
}

// report prints each row's sample count and latency distribution, as
// measured.
func (o *ops) report(w io.Writer) {
	rows := make([]string, 0, len(o.lat))
	for row := range o.lat {
		rows = append(rows, row)
	}
	sort.Strings(rows)
	fmt.Fprintf(w, "  %-14s %6s %9s %9s %9s %9s %9s\n", "row", "ops", "min ms", "p25", "median", "p75", "max")
	for _, row := range rows {
		v := o.lat[row]
		fmt.Fprintf(w, "  %-14s %6d %9.2f %9.2f %9.2f %9.2f %9.2f\n", row, len(v),
			quantile(v, 0), quantile(v, 0.25), median(v), quantile(v, 0.75), quantile(v, 1))
	}
}

// all returns every op latency of the pass, as measured.
func (o *ops) all() []float64 {
	var out []float64
	for _, v := range o.lat {
		out = append(out, v...)
	}
	return out
}

// endToEnd computes the latency and throughput metrics of a finished pass
// driven by the given number of closed-loop clients, at reference speed.
func (o *ops) endToEnd(clients int) map[string]float64 {
	speed := o.speed.factor()
	var medians []float64
	worst := 0.0
	for _, m := range o.rowMedians() {
		medians = append(medians, m)
		worst = math.Max(worst, m)
	}
	all := o.all()
	return map[string]float64{
		"latency_ms_geomean": geomean(medians) * speed,
		"latency_ms_worst":   worst * speed,
		// Clients send back to back, so ops over summed latency per client
		// is the rate they see; the benchmark's own checking between ops
		// is left out of it.
		"ops_per_s": ratio(float64(len(all)*clients), sum(all)/1e3*speed),
	}
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation (0 for an
// empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(v)))
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func mean(v []float64) float64 { return ratio(sum(v), float64(len(v))) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
