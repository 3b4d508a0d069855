// Command bench is the repository's benchmark: the system a user gets,
// measured end to end and layer by layer. It runs five workloads against
// the default configuration — the library path with the auto-scheduler,
// the fast kernels and the generated kernels linked, and the real
// polymage-serve binary over loopback HTTP — checks every output, and
// prints each metric BENCHMARK.json names, with its unit.
//
//	bash bench/run.sh                                   every workload, timed then traced
//	bash bench/run.sh --workload serve --seed 7         one workload, another seed
//	bash bench/run.sh --workload cold --trace 1         per-layer metrics of one workload
//	bash bench/run.sh -selfcheck                        two full sets must agree within the bounds
//	bash bench/run.sh -compare old.json new.json        compare two result files
//
// See README.md for what each workload stresses and how the layer metrics
// map onto the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	_ "repro/internal/apps/gen" // ahead-of-time kernels for the Table-2 apps, as polymage-bench links them
)

// env is what a workload's set-up gets: where things are and what to
// generate inputs from.
type env struct {
	root      string // the repository
	tiny      bool   // test-size pipelines (the smoke test)
	seed      int64
	serverBin string
	buildS    float64
}

// workload is one set-up workload, ready to run passes.
type workload interface {
	// clients is the number of closed-loop callers a pass drives.
	clients() int
	// pass runs ops for d, recording latencies and outcomes in o and, with
	// a tracer, a span at every layer boundary it crosses.
	pass(d time.Duration, tr *tracer, o *ops) error
	// verify makes the output checks that need a finished pass.
	verify(o *ops) error
	// layers fills in the per-layer rows the workload exercises.
	layers(m map[string]float64, tr *tracer, timed, traced *ops) error
	close()
}

// workloadDef names a workload. Set-up is repeated setupReps times and the
// median reported where one set-up is short enough for its time to jitter;
// the others spend several seconds in deterministic compilation and
// encoding and are set up once.
type workloadDef struct {
	name      string
	setupReps int
	setup     func(*env) (workload, error)
}

var workloadDefs = []workloadDef{
	{"frames", 1, setupFrames},
	{"cold", 1, setupCold},
	{"serve", 1, setupServe},
	{"pixels", 1, setupPixels},
	{"stream-roi", 3, setupStreamROI},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// runWorkload sets the workload up, measures it and returns the result
// line. Untraced, one pass of the given length yields the end-to-end
// metrics, at the reference machine speed (see calib.go). Traced, the time
// is split between an untraced and a traced pass:
// the second yields the per-layer metrics, the difference between the two
// the tracing overhead.
func runWorkload(e *env, man *manifest, def workloadDef, seconds float64, trace bool, log io.Writer) (*result, error) {
	var setups []float64
	var w workload
	for i := 0; i < def.setupReps; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = def.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	length := time.Duration(seconds * float64(time.Second))
	if trace {
		length /= 2
	}
	timed, traced := newOps(), newOps()
	values := map[string]float64{}
	defs := man.EndToEnd
	if err := w.pass(length, nil, timed); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	timed.finish()
	if !trace {
		values = timed.endToEnd(w.clients())
		values["setup_s"] = median(setups)
		fmt.Fprintf(log, "%s: op latency by pipeline, as measured; the metrics scale it by %.3f\n", def.name, timed.speed.factor())
		timed.report(log)
	} else {
		defs = man.PerLayer
		tr := newTracer()
		if err := w.pass(length, tr, traced); err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", def.name, err)
		}
		traced.finish()
		if err := w.layers(values, tr, timed, traced); err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		values["process.build_s"] = e.buildS
		values["trace.overhead_share"] = ratio(traced.endToEnd(w.clients())["latency_ms_geomean"],
			timed.endToEnd(w.clients())["latency_ms_geomean"]) - 1
		path := filepath.Join(e.root, "bench", "out", "trace-"+def.name+".json")
		if err := tr.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "%s: self time by span (%d spans in %s)\n", def.name, len(tr.spans), path)
		tr.report(log)
	}
	if err := w.verify(timed); err != nil {
		return nil, fmt.Errorf("%s: verify: %w", def.name, err)
	}
	for _, n := range append(timed.notes, traced.notes...) {
		fmt.Fprintf(log, "%s: %s\n", def.name, n)
	}
	metrics, err := label(defs, values)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct:   timed.wrong+traced.wrong == 0,
		Attempted: timed.attempted + traced.attempted,
		Failed:    timed.failed + traced.failed,
		Metrics:   metrics,
	}, nil
}

// printMetrics prints a result's metrics by name with their units, in the
// order BENCHMARK.json lists them; rows a workload does not exercise are
// left out.
func printMetrics(w io.Writer, name string, defs []metricDef, r *result) {
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, r.Correct, r.Attempted, r.Failed)
	for _, d := range defs {
		if m := r.Metrics[d.Name]; m.Value != 0 {
			fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
}

// run is one entry of a result file.
type run struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Result   *result `json:"result"`
}

// resultFile is what a full run writes to bench/out/results.json and what
// -compare reads.
type resultFile struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
	Runs    []run   `json:"runs"`
}

// correct reports whether every run of the set had correct outputs.
func (f *resultFile) correct() bool {
	for _, r := range f.Runs {
		if !r.Result.Correct {
			return false
		}
	}
	return true
}

// fullSet runs every workload, untraced and — when traced is set — traced
// as well.
func fullSet(e *env, man *manifest, seconds float64, traced bool, log io.Writer) (*resultFile, error) {
	out := &resultFile{Seed: e.seed, Seconds: seconds}
	for _, def := range workloadDefs {
		for trace := 0; trace <= 1; trace++ {
			if trace == 1 && !traced {
				continue
			}
			r, err := runWorkload(e, man, def, seconds, trace == 1, log)
			if err != nil {
				return nil, err
			}
			defs := man.EndToEnd
			if trace == 1 {
				defs = man.PerLayer
			}
			printMetrics(log, def.name, defs, r)
			out.Runs = append(out.Runs, run{Workload: def.name, Trace: trace, Result: r})
		}
	}
	return out, nil
}

// compare prints every end-to-end metric of two result sets side by side
// and returns how many got worse by more than their bound — or, when the
// sets are of one build (either), moved by more than it in either direction.
func compare(w io.Writer, man *manifest, old, new *resultFile, either bool) int {
	find := func(f *resultFile, workload string) *result {
		for _, r := range f.Runs {
			if r.Workload == workload && r.Trace == 0 {
				return r.Result
			}
		}
		return nil
	}
	worse := 0
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %9s %7s\n", "workload", "metric", "old", "new", "worse by", "bound")
	for _, def := range workloadDefs {
		a, b := find(old, def.name), find(new, def.name)
		if a == nil || b == nil {
			continue
		}
		for _, d := range man.EndToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			change := ratio(vb-va, va)
			if d.Better == "higher" {
				change = ratio(va-vb, va)
			}
			verdict := ""
			if change > d.Bound || (either && -change > d.Bound) {
				verdict = "  OUT OF BOUND"
				worse++
			}
			fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", def.name, d.Name, va, vb, 100*change, 100*d.Bound, verdict)
		}
	}
	return worse
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workloadName := flag.String("workload", "", "run one workload and print its result line (default: every workload, timed then traced)")
	seed := flag.Int64("seed", 1, "seed the inputs, request order and generated specs are made from")
	seconds := flag.Float64("seconds", 10, "length of the measured pass")
	trace := flag.Int("trace", 0, "with -workload: 1 records spans and prints the per-layer metrics instead of the end-to-end ones")
	size := flag.String("size", "full", "full: Table-2 apps at scale 4; tiny: test-size pipelines")
	root := flag.String("root", "..", "the repository (the benchmark runs from its own directory)")
	selfcheck := flag.Bool("selfcheck", false, "run two full sets and fail if an end-to-end metric of the second is worse than the first by more than its bound")
	cmp := flag.Bool("compare", false, "compare two result files given as arguments: old.json new.json")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	man, err := readManifest(*root)
	if err != nil {
		return fail(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		old, err := readResults(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		new, err := readResults(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compare(os.Stdout, man, old, new, false) > 0 {
			return 1
		}
		return 0
	}

	e := &env{root: *root, tiny: *size == "tiny", seed: *seed}
	if e.serverBin, e.buildS, err = buildServer(e.root, filepath.Join(e.root, ".bench_build")); err != nil {
		return fail(err)
	}

	switch {
	case *workloadName != "":
		def, ok := findWorkload(*workloadName)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q; BENCHMARK.json lists them", *workloadName))
		}
		r, err := runWorkload(e, man, def, *seconds, *trace == 1, os.Stderr)
		if err != nil {
			return fail(err)
		}
		line, err := json.Marshal(r)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("%s\n", line)
		if !r.Correct {
			return 1
		}
	case *selfcheck:
		first, err := fullSet(e, man, *seconds, false, os.Stdout)
		if err != nil {
			return fail(err)
		}
		second, err := fullSet(e, man, *seconds, false, os.Stdout)
		if err != nil {
			return fail(err)
		}
		if n := compare(os.Stdout, man, first, second, true); n > 0 {
			return fail(fmt.Errorf("selfcheck: %d metric(s) differ between two sets of the same build by more than their bound", n))
		}
		if !first.correct() || !second.correct() {
			return 1
		}
	default:
		set, err := fullSet(e, man, *seconds, true, os.Stdout)
		if err != nil {
			return fail(err)
		}
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return fail(err)
		}
		path := filepath.Join(e.root, "bench", "out", "results.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return fail(err)
		}
		fmt.Printf("results written to %s\n", path)
		if !set.correct() {
			return 1
		}
	}
	return 0
}
