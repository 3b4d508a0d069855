package core_test

// The searched schedules, pinned as data. Every row of
// testdata/schedule_digests.txt is one pipeline compiled under the
// auto-scheduler: the digest of the grouping it chose, the bits of its
// model cost, how many candidates the search priced and how many stages the
// inline pass substituted (0 when nothing was inlinable). Every compile
// runs one search, on the inlined graph, so its trace has exactly the
// phases graph, bounds, inline and group. A scheduler change that is meant
// to be a pure speed-up must leave the file byte-identical; one that is
// meant to change schedules regenerates it with
//
//	go test ./internal/core -run TestScheduleGolden -update
//
// and the diff is the review.

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/harness"
	"repro/internal/schedule"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/schedule_digests.txt from this checkout")

// goldenFleetWidth pins the worker count the parallelism term assumes, so
// the table does not depend on the machine the tests run on (the default is
// GOMAXPROCS; 2 is what the benchmark box has).
const goldenFleetWidth = 2

type searchCase struct {
	name   string
	b      *dsl.Builder
	outs   []string
	params map[string]int64
}

// searchCases lists the pipelines the golden table walks:
// the seven Table-2 apps at test size and at scale 4 (the size bench/ runs),
// the two uint8 apps at test and benchmark size, and the 40 generated
// pipelines cmd/polymage-gen emits gencorpus kernels for.
func searchCases(tb testing.TB) []searchCase {
	tb.Helper()
	var out []searchCase
	add := func(name string, build func() (*dsl.Builder, []string), params map[string]int64) {
		b, outs := build()
		out = append(out, searchCase{name, b, outs, params})
	}
	for _, app := range apps.All() {
		add(app.Name+"/test", app.Build, app.TestParams)
		add(app.Name+"/scale4", app.Build, harness.ScaledParams(app, 4))
	}
	for _, app := range apps.AllNarrow() {
		add(app.Name+"/test", app.Build, app.TestParams)
		add(app.Name+"/bench", app.Build, app.BenchParams)
	}
	for seed := int64(1); seed <= 40; seed++ {
		built, err := difftest.Generate(seed).Build(false)
		if err != nil {
			tb.Fatalf("seed %d: %v", seed, err)
		}
		out = append(out, searchCase{fmt.Sprintf("seed%03d", seed), built.Graph.Builder, built.LiveOuts, built.Params})
	}
	return out
}

// compileSearched compiles one case under the auto-scheduler.
func compileSearched(c searchCase) (*core.Pipeline, error) {
	so := schedule.Options{Auto: true, AutoOpts: &schedule.AutoOptions{FleetWidth: goldenFleetWidth}}
	return core.Compile(c.b, c.outs, core.Options{Estimates: c.params, Schedule: so, AllowUnproven: true})
}

func TestScheduleGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range searchCases(t) {
		pl, err := compileSearched(c)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		gr := pl.Grouping
		if !gr.Searched || gr.Search == nil {
			t.Fatalf("%s: grouping not searched", c.name)
		}
		var phases []string
		for _, ph := range pl.Trace.Phases {
			phases = append(phases, ph.Name)
		}
		if got := strings.Join(phases, " "); got != "graph bounds inline group" {
			t.Errorf("%s: compile phases %q, want one search: \"graph bounds inline group\"", c.name, got)
		}
		fmt.Fprintf(&sb, "%s digest=%s cost=%016x states=%d inlined=%d\n",
			c.name, gr.Digest(), math.Float64bits(gr.ModelCost), gr.Search.States, len(pl.Inlined))
	}
	path := filepath.Join("testdata", "schedule_digests.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
		for i := 0; i < len(wl) || i < len(gl); i++ {
			var w, g string
			if i < len(wl) {
				w = wl[i]
			}
			if i < len(gl) {
				g = gl[i]
			}
			if w != g {
				t.Errorf("row %d:\n  want %s\n  got  %s", i+1, w, g)
			}
		}
	}
}
