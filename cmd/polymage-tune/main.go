// polymage-tune runs the model-driven autotuner (Section 3.8) on one
// application: a grid over tile sizes and overlap thresholds, optionally
// printing the full (1-core, N-core) scatter behind Figure 9, and compares
// against the OpenTuner-style random-search baseline.
//
// -auto validates the analytical cost model behind Options.Auto instead:
// it measures a grid of schedules, ranks them by the model's predicted
// cost, and reports whether the predicted best matches the measured best
// (top-1 hit) plus the Spearman rank correlation, alongside the searched
// schedule's own measurement.
//
// Usage:
//
//	polymage-tune -app camera [-scale 4] [-scatter] [-full-space]
//	              [-random-trials 5]
//	polymage-tune -auto [-app camera] [-scale 4] [-runs 3]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/apps"
	"repro/internal/autotune"
	"repro/internal/harness"
	"repro/internal/schedule"
)

func main() {
	appName := flag.String("app", "camera", "application: "+strings.Join(apps.Names(), ", "))
	scale := flag.Int64("scale", 8, "divide paper image sizes by this factor")
	threads := flag.Int("threads", 0, "threads (0 = GOMAXPROCS)")
	scatter := flag.Bool("scatter", false, "print every configuration (Figure 9 data)")
	fullSpace := flag.Bool("full-space", false, "use the paper's full 147-point space")
	randomTrials := flag.Int("random-trials", 5, "trials for the OpenTuner-style random search (0 = skip)")
	autoEval := flag.Bool("auto", false, "validate the auto-scheduler's cost model: predicted vs measured schedule ranking on -app")
	runs := flag.Int("runs", 3, "timed runs per measured schedule for -auto")
	flag.Parse()

	app, err := apps.Get(*appName)
	fatal(err)
	params := harness.ScaledParams(app, *scale)
	th := *threads
	if th == 0 {
		th = runtime.GOMAXPROCS(0)
	}
	if *autoEval {
		autoMain(app, params, *runs)
		return
	}

	space := autotune.QuickSpace()
	if *fullSpace {
		space = autotune.FullSpace()
	}
	fmt.Printf("%s: tuning %d configurations at %v, %d threads\n", app.Title, space.Size(), params, th)

	if *scatter {
		results, err := autotune.Scatter(app, params, space, th, 42, true)
		fatal(err)
		fmt.Printf("%-18s %-8s %12s %12s\n", "tiles", "othresh", "ms(1)", fmt.Sprintf("ms(%d)", th))
		for _, r := range results {
			fmt.Printf("%-18v %-8.2f %12.2f %12.2f\n", r.Options.TileSizes, r.Options.OverlapThreshold, r.Ms1, r.Ms)
		}
	}
	best, err := autotune.Grid(app, params, space, th, 42)
	fatal(err)
	fmt.Printf("model-driven best: tiles %v, othresh %.2f -> %.2f ms\n",
		best.Options.TileSizes, best.Options.OverlapThreshold, best.Ms)

	if *randomTrials > 0 {
		rnd, err := autotune.RandomSearch(app, params, *randomTrials, th, 42)
		fatal(err)
		fmt.Printf("random search (%d trials, OpenTuner stand-in): %.2f ms (%.2fx slower)\n",
			*randomTrials, rnd.Ms, rnd.Ms/best.Ms)
	}
}

// autoMain validates the cost model on one app: it measures the sweep
// grid, ranks it by predicted cost vs measured wall clock, and also times
// the schedule the search actually picks.
func autoMain(app *apps.App, params map[string]int64, runs int) {
	fmt.Printf("%s: cost-model ranking at %v, 1 thread\n", app.Title, params)
	samples, err := autotune.AppSamples(app, params, runs, 42)
	fatal(err)
	w := schedule.DefaultCostWeights()
	v := [5]float64{w.Compute, w.Recompute, w.Traffic, w.Parallel, w.Footprint}
	fmt.Printf("%-16s %14s %12s\n", "schedule", "predicted", "measured ms")
	for _, s := range samples {
		pred := 0.0
		for i := range v {
			pred += v[i] * s.Terms[i]
		}
		fmt.Printf("%-16s %14.4g %12.2f\n", s.Config, pred, s.Millis)
	}
	top1, rho := autotune.RankEval(samples, w)
	fmt.Printf("top-1 hit: %v, Spearman rho: %.3f\n", top1, rho)

	so := schedule.DefaultOptions()
	so.Auto = true
	ms, _, err := autotune.MeasureSchedule(app, params, so, runs, 42)
	fatal(err)
	best := samples[0].Millis
	for _, s := range samples[1:] {
		if s.Millis < best {
			best = s.Millis
		}
	}
	fmt.Printf("searched schedule: %.2f ms (grid-measured best %.2f ms, ratio %.3f)\n", ms, best, ms/best)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "polymage-tune:", err)
		os.Exit(1)
	}
}
