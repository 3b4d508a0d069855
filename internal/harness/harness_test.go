package harness

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/autotune"
)

func tinyConfig() Config {
	return Config{Scale: 1 << 20, Runs: 1, Threads: 2, Seed: 1} // clamps to test sizes
}

func TestMeasureApp(t *testing.T) {
	app, err := apps.Get("harris")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MeasureApp(app, "opt+vec", 2, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Errorf("measured %v ms", ms)
	}
}

// TestStatsGenMisses: polymage-bench -stats says how many pieces run on
// generated kernels and why the rest do not. This binary links no kernel
// package, so all nine of bilateral's pieces — the data-dependent slice and
// the two accumulators among them — read "no kernel for key".
func TestStatsGenMisses(t *testing.T) {
	var buf bytes.Buffer
	if err := statsApp(&buf, "bilateral", tinyConfig()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"gen      0/9 pieces; misses: 9 no kernel for key, 0 predicated, 0 self-ref, 0 irregular access",
		"tile by tile 0, extrapolated 0",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("stats output lacks %q:\n%s", want, buf.String())
		}
	}
}

// TestStatsDiscardsWarmup: -stats' per-stage rows describe the runs after
// the first, which it reports on a line of its own: over 3 runs a stage's
// points are two runs' worth, and the run count says 2.
func TestStatsDiscardsWarmup(t *testing.T) {
	cfg := tinyConfig()
	var one, three bytes.Buffer
	if err := statsApp(&one, "harris", cfg); err != nil {
		t.Fatal(err)
	}
	cfg.Runs = 3
	if err := statsApp(&three, "harris", cfg); err != nil {
		t.Fatal(err)
	}
	points := func(out string) map[string]int64 {
		pts := map[string]int64{}
		for _, line := range strings.Split(out, "\n") {
			f := strings.Fields(line)
			if len(f) == 9 && strings.HasSuffix(f[8], "%") {
				if n, err := strconv.ParseInt(f[7], 10, 64); err == nil {
					pts[f[0]] = n
				}
			}
		}
		return pts
	}
	p1, p3 := points(one.String()), points(three.String())
	if len(p1) == 0 || len(p1) != len(p3) {
		t.Fatalf("stage rows: %v after 1 run, %v after 3", p1, p3)
	}
	for stage, n := range p1 {
		if p3[stage] != 2*n {
			t.Errorf("%s: %d points over 3 runs, want 2 runs' worth (%d)", stage, p3[stage], 2*n)
		}
	}
	if strings.Contains(one.String(), "first run") {
		t.Errorf("a single run has no warm-up to report:\n%s", one.String())
	}
	for _, want := range []string{"[scale 1/1048576, 2 runs,", "  first    first run "} {
		if !strings.Contains(three.String(), want) {
			t.Errorf("3-run stats lack %q:\n%s", want, three.String())
		}
	}
}

func TestScaledParams(t *testing.T) {
	app, _ := apps.Get("harris")
	p := ScaledParams(app, 4)
	if p["R"] != 1600 {
		t.Errorf("R = %d, want 1600", p["R"])
	}
	p = ScaledParams(app, 1)
	if p["R"] != 6400 {
		t.Errorf("unscaled R = %d", p["R"])
	}
	p = ScaledParams(app, 1<<20)
	if p["R"] != app.TestParams["R"] {
		t.Errorf("clamped R = %d, want test size %d", p["R"], app.TestParams["R"])
	}
}

func TestTable2Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := Table2(&buf, tinyConfig()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, app := range apps.All() {
		if !strings.Contains(out, app.Title) {
			t.Errorf("Table 2 missing row for %s\n%s", app.Title, out)
		}
	}
	if !strings.Contains(out, "geomean") {
		t.Error("Table 2 missing geomean line")
	}
	t.Log("\n" + out)
}

func TestFigure10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	if err := Figure10(&buf, tinyConfig(), []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, sub := range []string{"Figure 10(a)", "Figure 10(f)", "opt+vec", "hmatched"} {
		if !strings.Contains(out, sub) {
			t.Errorf("Figure 10 output missing %q", sub)
		}
	}
}

func TestFigure9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	space := autotune.Space{TileSizes: []int64{16, 32}, Thresholds: []float64{0.4}, Dims: 2}
	if err := Figure9(&buf, tinyConfig(), space); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 9(a)") || !strings.Contains(out, "best:") {
		t.Errorf("Figure 9 output malformed:\n%s", out)
	}
}

func TestAutotuneGridAndRandom(t *testing.T) {
	app, _ := apps.Get("unsharp")
	params := app.TestParams
	space := autotune.Space{TileSizes: []int64{16, 32}, Thresholds: []float64{0.4}, Dims: 2}
	if space.Size() != 4 {
		t.Errorf("space size = %d, want 4", space.Size())
	}
	best, err := autotune.Grid(app, params, space, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if best.Ms <= 0 {
		t.Error("grid best has no time")
	}
	rnd, err := autotune.RandomSearch(app, params, 3, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rnd.Ms <= 0 {
		t.Error("random best has no time")
	}
}

func TestCSVOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var buf bytes.Buffer
	space := autotune.Space{TileSizes: []int64{16, 32}, Thresholds: []float64{0.4}, Dims: 2}
	if err := Figure9CSV(&buf, tinyConfig(), space); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// The n-core column reflects the effective thread count, which is the
	// configured count clamped to GOMAXPROCS (so ms_1core on a 1-core box).
	wantHeader := fmt.Sprintf("app,tile0,tile1,othresh,ms_1core,ms_%dcore", effThreads(tinyConfig().Threads))
	if lines[0] != wantHeader {
		t.Errorf("csv header = %q, want %q", lines[0], wantHeader)
	}
	if len(lines) != 1+3*space.Size() {
		t.Errorf("csv rows = %d, want %d", len(lines)-1, 3*space.Size())
	}
	// Figure 10's cores column is the thread count the engine ran, not the
	// one asked for: the engine clamps to the fleet, so 64 must not appear
	// as a label over a GOMAXPROCS-thread measurement, nor as a second copy
	// of the row it clamps to.
	buf.Reset()
	if err := Figure10CSV(&buf, tinyConfig(), []int{1, 2, 64}); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(recs[0], ","); got != "app,variant,cores,speedup_over_base" {
		t.Errorf("figure10 csv header = %q", got)
	}
	seen := make(map[string]bool)
	for _, rec := range recs[1:] {
		cores, err := strconv.Atoi(rec[2])
		if err != nil || cores > runtime.GOMAXPROCS(0) {
			t.Errorf("row %v: cores cell exceeds GOMAXPROCS %d", rec, runtime.GOMAXPROCS(0))
		}
		key := strings.Join(rec[:3], ",")
		if seen[key] {
			t.Errorf("row %s repeats", key)
		}
		seen[key] = true
	}
	if !seen["harris,opt+vec,1"] {
		t.Errorf("figure10 csv lacks harris,opt+vec,1:\n%v", recs)
	}
}
