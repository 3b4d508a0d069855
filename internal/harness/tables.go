package harness

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/apps"
	"repro/internal/autotune"
)

// Table2 regenerates the paper's Table 2: per application, PolyMage
// (opt+vec) execution times at 1/4/N cores, the OpenCV column where a
// library implementation exists, and speedups over the OpenTuner stand-in
// and the H-tuned baseline at N cores. Paper values are printed alongside.
// Columns are labelled with the thread count the engine ran (effCores), so
// the 4-core column is dropped where that is the 1- or the N-core one.
func Table2(w io.Writer, cfg Config) error {
	threads := effThreads(cfg.Threads)
	cols := effCores([]int{1, 4, threads})
	fmt.Fprintf(w, "Table 2: execution times (ms) and speedups [scale 1/%d of paper image sizes]\n", cfg.Scale)
	fmt.Fprintf(w, "%-22s %7s", "Benchmark", "Stages")
	for _, c := range cols {
		fmt.Fprintf(w, " %9s", fmt.Sprintf("%dcore", c))
	}
	fmt.Fprintf(w, " %9s | %11s %11s | %11s %11s\n",
		"OpenCV", "vs OpenTun", "(paper)", "vs H-tuned", "(paper)")
	var sHT, sOT []float64
	for _, app := range apps.All() {
		fmt.Fprintf(w, "%-22s %7d", app.Title, app.StageCount())
		var msN float64
		for _, c := range cols {
			ms, err := MeasureApp(app, "opt+vec", c, cfg)
			if err != nil {
				return fmt.Errorf("%s: %v", app.Name, err)
			}
			fmt.Fprintf(w, " %9.2f", ms)
			if c == threads {
				msN = ms
			}
		}
		cvMs, hasCV, err := MeasureOpenCV(app, 1, cfg)
		if err != nil {
			return err
		}
		cvCell := "-"
		if hasCV {
			cvCell = fmt.Sprintf("%9.2f", cvMs)
		}
		htMs, err := MeasureApp(app, "htuned+vec", threads, cfg)
		if err != nil {
			return err
		}
		params := ScaledParams(app, cfg.Scale)
		ot, err := autotune.RandomSearch(app, params, 5, threads, cfg.Seed)
		if err != nil {
			return err
		}
		spOT := ot.Ms / msN
		spHT := htMs / msN
		sOT = append(sOT, spOT)
		sHT = append(sHT, spHT)
		fmt.Fprintf(w, " %9s | %10.2fx %10.2fx | %10.2fx %10.2fx\n",
			cvCell, spOT, app.SpeedupOpenTuner, spHT, app.SpeedupHTuned)
	}
	fmt.Fprintf(w, "geomean speedups: %.2fx over OpenTuner stand-in (paper 5.39x), %.2fx over H-tuned stand-in (paper 1.75x over manual Halide)\n",
		geomean(sOT), geomean(sHT))
	return nil
}

// figure10Apps lists the sub-figures of Figure 10 in order.
var figure10Apps = []struct {
	name       string
	sub        string
	hasMatched bool
}{
	{"interpolate", "a", true},
	{"harris", "b", true},
	{"pyramid", "c", true},
	{"bilateral", "d", false},
	{"camera", "e", false},
	{"laplacian", "f", false},
}

// figure10Line is one measured line of Figure 10: one variant of one
// application at every core count.
type figure10Line struct {
	sub     string // sub-figure letter
	app     *apps.App
	variant string
	// cores are the thread counts the engine ran (effCores of the request).
	cores []int
	// speedup[i] is PolyMage(base) on one core over this variant at
	// cores[i].
	speedup []float64
}

// measureFigure10 measures every line of Figure 10; the table and the CSV
// both render from it.
func measureFigure10(cfg Config, cores []int) ([]figure10Line, error) {
	if len(cores) == 0 {
		cores = []int{1, 2, 4}
	}
	eff := effCores(cores)
	var lines []figure10Line
	for _, fa := range figure10Apps {
		app, err := apps.Get(fa.name)
		if err != nil {
			return nil, err
		}
		baseMs, err := MeasureApp(app, "base", 1, cfg)
		if err != nil {
			return nil, err
		}
		variants := []string{"base", "base+vec", "opt", "opt+vec", "htuned", "htuned+vec"}
		if fa.hasMatched {
			variants = append(variants, "hmatched", "hmatched+vec")
		}
		for _, v := range variants {
			l := figure10Line{sub: fa.sub, app: app, variant: v, cores: eff}
			for _, c := range eff {
				ms, err := MeasureApp(app, v, c, cfg)
				if err != nil {
					return nil, err
				}
				l.speedup = append(l.speedup, baseMs/ms)
			}
			lines = append(lines, l)
		}
	}
	return lines, nil
}

// Figure10 regenerates the speedup-over-base charts: for each application,
// the speedup of every variant at each core count relative to
// PolyMage(base) on one core.
func Figure10(w io.Writer, cfg Config, cores []int) error {
	lines, err := measureFigure10(cfg, cores)
	if err != nil {
		return err
	}
	for i, l := range lines {
		if i == 0 || lines[i-1].app != l.app {
			fmt.Fprintf(w, "\nFigure 10(%s): %s — speedup over PolyMage(base) on 1 core [scale 1/%d]\n",
				l.sub, l.app.Title, cfg.Scale)
			fmt.Fprintf(w, "%-22s", "variant \\ cores")
			for _, c := range l.cores {
				fmt.Fprintf(w, " %8d", c)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-22s", l.variant)
		for _, sp := range l.speedup {
			fmt.Fprintf(w, " %8.2f", sp)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// figure9Apps lists the sub-figures of Figure 9.
var figure9Apps = []struct {
	name string
	sub  string
}{
	{"pyramid", "a"},
	{"camera", "b"},
	{"interpolate", "c"},
}

// Figure9 regenerates the autotuning scatter plots: per configuration of
// the model-driven space, the (1-core, N-core) execution-time pair.
func Figure9(w io.Writer, cfg Config, space autotune.Space) error {
	threads := effThreads(cfg.Threads)
	for _, fa := range figure9Apps {
		app, err := apps.Get(fa.name)
		if err != nil {
			return err
		}
		params := ScaledParams(app, cfg.Scale)
		fmt.Fprintf(w, "\nFigure 9(%s): %s — autotuning configurations (%d points) [scale 1/%d]\n",
			fa.sub, app.Title, space.Size(), cfg.Scale)
		fmt.Fprintf(w, "%-18s %-10s %12s %12s\n", "tiles", "othresh", "ms(1 core)", fmt.Sprintf("ms(%d core)", threads))
		results, err := autotune.Scatter(app, params, space, threads, cfg.Seed, true)
		if err != nil {
			return err
		}
		best := results[0]
		for _, r := range results {
			fmt.Fprintf(w, "%-18v %-10.2f %12.2f %12.2f\n",
				r.Options.TileSizes, r.Options.OverlapThreshold, r.Ms1, r.Ms)
			if r.Ms < best.Ms {
				best = r
			}
		}
		fmt.Fprintf(w, "best: tiles %v, othresh %.2f -> %.2f ms\n",
			best.Options.TileSizes, best.Options.OverlapThreshold, best.Ms)
	}
	return nil
}

// effThreads resolves a configured thread count to the effective one: 0
// means GOMAXPROCS, and explicit values are clamped to GOMAXPROCS — the
// shared fleet is machine-sized, so asking for more only misreports the
// measurement's parallelism.
func effThreads(t int) int {
	max := defaultThreads()
	if t <= 0 || t > max {
		return max
	}
	return t
}

// effCores maps requested thread counts to the ones the engine runs
// (effThreads), de-duplicated in order: a column is labelled with the
// parallelism it was measured at, and no measurement is repeated under a
// label the machine cannot run.
func effCores(cores []int) []int {
	var eff []int
	for _, c := range cores {
		if e := effThreads(c); !slices.Contains(eff, e) {
			eff = append(eff, e)
		}
	}
	return eff
}
