// Command polymage-gen is the ahead-of-time kernel generator: it compiles
// pipelines, gathers every stage piece eligible for a generated kernel
// (engine.Program.GenUnits) and writes one Go function per distinct piece
// shape (internal/codegen.EmitGo), registered with the execution engine
// under the shape's content key. A kernel binds to any piece with that key
// — any schedule, any image size, any pipeline — so each target compiles
// its pipelines under both the hand and the auto schedule only to collect
// the shapes the two inlining decisions produce, not to cover schedules.
//
// Two generation targets are maintained in-tree, one kernels_gen.go each:
//
//	internal/apps/gen       the Table-2 apps at scale 4
//	internal/difftest/gencorpus
//	                        the first -corpus difftest seeds under the
//	                        gen-kernels and schedule-auto knobs, and the
//	                        hand-written gather table (difftest.GatherCases)
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
	"repro/internal/codegen"
	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/schedule"
)

func main() {
	appList := flag.String("apps", "all", "comma-separated app names to generate kernels for (empty = skip apps)")
	corpus := flag.Int("corpus", 40, "number of difftest corpus seeds to generate kernels for (0 = skip)")
	dir := flag.String("dir", ".", "repository root the generated packages are written under")
	scale := flag.Int64("scale", 4, "parameter scale the apps are compiled at (keys do not depend on it)")
	check := flag.Bool("check", false, "verify checked-in files match the emitter instead of writing")
	verbose := flag.Bool("v", false, "print every eligible piece")
	flag.Parse()

	drift := 0
	emit := func(pkgDir, pkg string, units []engine.GenUnit) {
		src, err := codegen.EmitGo(pkg, units)
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
				fmt.Printf("  %s/%s piece %d: rank %d f32=%v tier=%s key=%.12s\n",
					name, u.Stage, u.Piece, u.Rank, u.F32, u.Tier, u.Key)
			}
			units = append(units, u)
		}
		prog.Close()
	}

	if *appList != "" {
		names := apps.Names()
		if *appList != "all" {
			names = strings.Split(*appList, ",")
		}
		v, err := baseline.Get("opt+vec")
		if err != nil {
			fatal(err)
		}
		for _, name := range names {
			app, err := apps.Get(strings.TrimSpace(name))
			if err != nil {
				fatal(err)
			}
			for _, auto := range []bool{false, true} {
				so := schedule.DefaultOptions()
				so.Auto = auto
				prep, err := harness.Prepare(app, v, harness.ScaledParams(app, *scale), 1, so, harness.DefaultSeed)
				if err != nil {
					fatal(fmt.Errorf("prepare %s: %w", app.Name, err))
				}
				gather(app.Name, prep.Prog)
			}
		}
		emit("internal/apps/gen", "gen", units)
	}

	if *corpus > 0 {
		units = nil
		for seed := int64(1); seed <= int64(*corpus); seed++ {
			for _, k := range difftest.GenKnobs() {
				name := fmt.Sprintf("seed%03d/%s", seed, k.Name)
				prog, err := difftest.BuildProgram(seed, k)
				if err != nil {
					fatal(fmt.Errorf("%s: %w", name, err))
				}
				gather(name, prog)
			}
		}
		for _, gc := range difftest.GatherCases() {
			prog, err := gc.Compile(gc.Params, engine.ExecOptions{Fast: true})
			if err != nil {
				fatal(fmt.Errorf("gather case %s: %w", gc.Name, err))
			}
			gather("gather/"+gc.Name, prog)
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
