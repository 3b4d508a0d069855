// Command polymage-gen is the ahead-of-time kernel generator: it compiles
// pipelines, gathers every stage piece eligible for a generated kernel
// (engine.Program.GenUnits) and writes one Go function per distinct piece
// shape (engine.EmitGo, a printing of the row VM's program for the piece),
// registered with the execution engine
// under the shape's content key. A kernel binds to any piece with that key
// — any schedule, any image size, any pipeline — so each target compiles
// its pipelines under both the hand and the auto schedule only to collect
// the shapes the two inlining decisions produce, not to cover schedules.
//
// Two generation targets are maintained in-tree, one kernels_gen.go each:
//
//	internal/apps/gen       the Table-2 apps at scale 4 and the uint8 apps
//	                        (apps.AllNarrow) at their benchmark size, under
//	                        NarrowTypes and in the float32 layout
//	internal/difftest/gencorpus
//	                        the first -corpus difftest seeds under the
//	                        gen-kernels and schedule-auto knobs, the integer
//	                        corpus under their NarrowTypes counterparts, and
//	                        the hand-written tables (difftest.GatherCases,
//	                        difftest.IntBodyCases, difftest.AccumCases,
//	                        difftest.PhaseCases, difftest.CarryCases,
//	                        difftest.StrideCases, difftest.MinMaxNaNCase,
//	                        difftest.ExpCase)
//
// Run `go run ./cmd/polymage-gen` to regenerate both; -check (`make gen`)
// verifies without writing, the tier-1 wiring that keeps checked-in
// kernels and emitter in lockstep.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/schedule"
)

func main() {
	appList := flag.String("apps", "all", "comma-separated app names, Table-2 or uint8, to generate kernels for (empty = skip apps)")
	corpus := flag.Int("corpus", 40, "number of difftest corpus seeds to generate kernels for, beside the integer corpus and the hand-written tables (0 = skip them all)")
	dir := flag.String("dir", ".", "repository root the generated packages are written under")
	scale := flag.Int64("scale", 4, "parameter scale the apps are compiled at (keys do not depend on it)")
	check := flag.Bool("check", false, "verify checked-in files match the emitter instead of writing")
	verbose := flag.Bool("v", false, "print every eligible piece, with its kernel's phase count, carried values and lanes")
	flag.Parse()

	drift := 0
	emit := func(pkgDir, pkg string, units []engine.GenUnit) {
		src, err := engine.EmitGo(pkg, units)
		if err != nil {
			fatal(err)
		}
		path := filepath.Join(*dir, pkgDir, "kernels_gen.go")
		fmt.Printf("%s: %d pieces, %d distinct kernels\n", path, len(units), bytes.Count(src, []byte("\nfunc k_")))
		if *check {
			if old, err := os.ReadFile(path); err != nil || !bytes.Equal(old, src) {
				fmt.Fprintf(os.Stderr, "polymage-gen: %s: missing or drifted from emitter output (rerun go run ./cmd/polymage-gen)\n", path)
				drift++
			}
			return
		}
		if err := os.WriteFile(path, src, 0o644); err != nil {
			fatal(err)
		}
	}
	var units []engine.GenUnit
	gather := func(name string, prog *engine.Program) {
		for _, u := range prog.GenUnits() {
			if *verbose {
				fmt.Printf("  %s/%s piece %d: rank %d set=%s phases=%d carried=%d lanes=%d out=%s reads=%v key=%.12s\n",
					name, u.Stage, u.Piece, u.Rank, u.Set(), u.Phases(), u.Carried(), u.Lanes(), u.Out, u.Elems, u.Key)
			}
			units = append(units, u)
		}
		prog.Close()
	}

	if *appList != "" {
		names := append(apps.Names(), apps.NarrowNames()...)
		if *appList != "all" {
			names = strings.Split(*appList, ",")
		}
		v, err := baseline.Get("opt+vec")
		if err != nil {
			fatal(err)
		}
		for _, name := range names {
			name = strings.TrimSpace(name)
			var prepares []func(schedule.Options) (*harness.Prepared, error)
			if app, err := apps.Get(name); err == nil {
				prepares = append(prepares, func(so schedule.Options) (*harness.Prepared, error) {
					return harness.Prepare(app, v, harness.ScaledParams(app, *scale), 1, so, harness.DefaultSeed)
				})
			} else if napp, nerr := apps.GetNarrow(name); nerr == nil {
				// A uint8 app is compiled in both layouts: NarrowTypes as
				// bench/ runs it, and the float32 layout a narrow-off
				// comparison runs.
				for _, narrow := range []bool{true, false} {
					prepares = append(prepares, func(so schedule.Options) (*harness.Prepared, error) {
						return harness.PrepareNarrow(napp, v, narrow, napp.BenchParams, 1, so, harness.DefaultSeed)
					})
				}
			} else {
				fatal(fmt.Errorf("%v; %v", err, nerr))
			}
			for _, prepare := range prepares {
				for _, auto := range []bool{false, true} {
					so := schedule.DefaultOptions()
					so.Auto = auto
					prep, err := prepare(so)
					if err != nil {
						fatal(fmt.Errorf("prepare %s: %w", name, err))
					}
					gather(name, prep.Prog)
				}
			}
		}
		emit("internal/apps/gen", "gen", units)
	}

	if *corpus > 0 {
		units = nil
		for seed := int64(1); seed <= int64(*corpus); seed++ {
			for _, k := range difftest.GenKnobs() {
				name := fmt.Sprintf("seed%03d/%s", seed, k.Name)
				prog, err := difftest.BuildProgram(difftest.Generate(seed), k)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", name, err))
				}
				gather(name, prog)
			}
		}
		for i := int64(0); i < difftest.IntegerCorpusSeeds; i++ {
			seed := difftest.IntegerCorpusBase + i
			for _, k := range difftest.NarrowGenKnobs() {
				name := fmt.Sprintf("int%d/%s", seed, k.Name)
				prog, err := difftest.BuildProgram(difftest.GenerateInteger(seed), k)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", name, err))
				}
				gather(name, prog)
			}
		}
		tables := append(difftest.GatherCases(), difftest.IntBodyCases()...)
		tables = append(tables, difftest.AccumCases()...)
		for _, pc := range difftest.PhaseCases() {
			tables = append(tables, pc.GatherCase)
		}
		for _, cc := range difftest.CarryCases() {
			tables = append(tables, cc.GatherCase)
		}
		for _, sc := range difftest.StrideCases() {
			tables = append(tables, sc.GatherCase)
		}
		for _, gc := range append(tables, difftest.MinMaxNaNCase(), difftest.ExpCase()) {
			prog, err := gc.Compile(gc.Params, engine.ExecOptions{Fast: true})
			if err != nil {
				fatal(fmt.Errorf("table case %s: %w", gc.Name, err))
			}
			gather("table/"+gc.Name, prog)
		}
		emit("internal/difftest/gencorpus", "gencorpus", units)
	}

	if drift > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polymage-gen:", err)
	os.Exit(1)
}
