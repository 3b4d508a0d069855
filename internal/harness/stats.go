package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// Stats compiles every benchmark app — the Table-2 apps, then the uint8
// apps under NarrowTypes — with executor metrics enabled, runs it cfg.Runs
// times and renders a per-stage breakdown: storage element type, evaluator
// tier, kernel time (total and per point), points and tiles executed, and
// the measured recomputation fraction next to the schedule model's overlap
// estimate. With more than one run the first is a warm-up, as for Table 2:
// it is reported on its own line (a new program's first run allocates every
// buffer it touches) and left out of the per-stage rows. This is the
// observability layer's human-readable front end (polymage-bench -stats).
func Stats(w io.Writer, cfg Config) error {
	for _, name := range append(apps.Names(), apps.NarrowNames()...) {
		if err := statsApp(w, name, cfg); err != nil {
			return fmt.Errorf("stats %s: %w", name, err)
		}
	}
	return nil
}

// statsApp renders one app, Table-2 or uint8, by name.
func statsApp(w io.Writer, name string, cfg Config) error {
	v, err := baseline.Get("opt+vec")
	if err != nil {
		return err
	}
	// Scheduled as polymage-serve schedules by default: the searched
	// grouping is what the search line and the per-group rows describe.
	so := schedule.DefaultOptions()
	so.Auto = true
	var p *Prepared
	if napp, nerr := apps.GetNarrow(name); nerr == nil {
		p, err = PrepareNarrow(napp, v, true, scaleParams(napp.BenchParams, napp.TestParams, cfg.Scale), cfg.Threads, so, cfg.Seed)
	} else {
		var app *apps.App
		if app, err = apps.Get(name); err != nil {
			return err
		}
		p, err = Prepare(app, v, ScaledParams(app, cfg.Scale), cfg.Threads, so, cfg.Seed)
	}
	if err != nil {
		return err
	}
	defer p.Close()
	// Metrics must be on before the executor is created; Prepare does not
	// run the program, so the first Run below builds the instrumented pool.
	p.Prog.Opts.Metrics = true
	runs := cfg.Runs
	if runs < 1 {
		runs = 1
	}
	e := p.Prog.Executor()
	var first, snap obs.Snapshot
	walls := make([]float64, runs) // ms per run
	for i := range walls {
		out, err := e.Run(p.Inputs)
		if err != nil {
			return err
		}
		e.Recycle(out)
		s := e.Snapshot()
		walls[i] = float64(s.WallNanos-snap.WallNanos) / 1e6
		if i == 0 {
			first = s
		}
		snap = s
	}
	if runs > 1 {
		snap = steady(snap, first)
	}
	renderStats(w, name, cfg, snap, p.Prog.Stats(), walls)
	return nil
}

// steady is the part of snapshot all that came after snapshot first: every
// run counter and per-stage and per-group total less first's, utilization
// recomputed over what remains.
func steady(all, first obs.Snapshot) obs.Snapshot {
	s := all
	s.Runs -= first.Runs
	s.WallNanos -= first.WallNanos
	s.Stages = slices.Clone(all.Stages)
	for i := range s.Stages {
		st, f := &s.Stages[i], first.Stages[i]
		st.KernelNanos -= f.KernelNanos
		st.Points -= f.Points
		st.Rows -= f.Rows
		st.RecomputedPoints -= f.RecomputedPoints
		st.RecomputedRows -= f.RecomputedRows
		st.Tiles -= f.Tiles
	}
	s.Groups = slices.Clone(all.Groups)
	for i := range s.Groups {
		s.Groups[i].Tiles -= first.Groups[i].Tiles
		s.Groups[i].TilesSkipped -= first.Groups[i].TilesSkipped
	}
	s.Workers.BusyNanos -= first.Workers.BusyNanos
	if s.WallNanos > 0 && s.Workers.Workers > 0 {
		s.Workers.Utilization = float64(s.Workers.BusyNanos) / (float64(s.WallNanos) * float64(s.Workers.Workers))
	}
	return s
}

// tierLabel names the evaluator tiers a stage's pieces lowered to, in
// dispatch order ("gen", "gen+rowvm/int", …).
func tierLabel(sm obs.StageModel) string {
	var tiers []string
	if sm.Gen > 0 {
		tiers = append(tiers, "gen")
	}
	if sm.RowVM > 0 {
		vm := "rowvm"
		switch {
		case sm.VMInt:
			vm += "/int"
		case sm.VMF32:
			vm += "/f32"
		}
		tiers = append(tiers, vm)
	}
	return strings.Join(tiers, "+")
}

// renderStats prints one app's report: snap holds the runs the rows describe
// and walls every run's wall time, the warm-up first.
func renderStats(w io.Writer, name string, cfg Config, snap obs.Snapshot, model obs.ProgramStats, walls []float64) {
	fmt.Fprintf(w, "stats %s [scale 1/%d, %d runs, opt+vec, auto-scheduled]\n", name, cfg.Scale, snap.Runs)
	if model.Compile != nil {
		fmt.Fprintf(w, "  compile  %s\n", model.Compile.String())
	}
	if model.AutoScheduled {
		fmt.Fprintf(w, "  search   %d states (%d evaluated, %d from memo), %d pruned; tiles per dimension %d, tile by tile %d, extrapolated %d",
			model.SearchStates, model.SearchCostEvals, model.SearchCostCacheHits, model.SearchPruned,
			model.SearchPerDimEvals, model.SearchEnumeratedEvals,
			model.SearchCostEvals-model.SearchPerDimEvals-model.SearchEnumeratedEvals)
		if model.UninlinedStates > 0 {
			stop := "ran to the end"
			if model.UninlinedBounded {
				stop = "stopped at the inlined cost"
			}
			fmt.Fprintf(w, "; uninlined graph %d states, %s", model.UninlinedStates, stop)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  lower    %s\n", model.Bind.String())
	if len(walls) > 1 {
		fmt.Fprintf(w, "  first    first run %.2f ms, steady median %.2f ms (the first run is left out below)\n",
			walls[0], median(walls[1:]))
	}
	fmt.Fprintf(w, "  run      %.2f ms wall, %d workers, %.0f%% utilization\n",
		snap.WallMillis(), snap.Workers.Workers, snap.Workers.Utilization*100)
	fmt.Fprintf(w, "  arena    %d hits, %d misses, %d pooled (%.1f KB)\n",
		snap.Arena.Hits, snap.Arena.Misses, snap.Arena.Pooled, float64(snap.Arena.PooledBytes)/1024.0)
	fmt.Fprintf(w, "  pools    %.1f KB VM registers\n", float64(snap.TempPools.VMRegBytes)/1024.0)
	fmt.Fprintf(w, "  %-22s %-7s %-16s %10s %6s %8s %8s %12s %10s\n", "stage", "elem", "tier", "kernel ms", "%", "ns/point", "tiles", "points", "recompute")
	totalNanos := int64(0)
	for _, st := range snap.Stages {
		totalNanos += st.KernelNanos
	}
	lowered := make(map[string]obs.StageModel, len(model.Stages))
	for _, sm := range model.Stages {
		lowered[sm.Name] = sm
	}
	for _, st := range snap.Stages {
		pct, perPoint := 0.0, 0.0
		if totalNanos > 0 {
			pct = 100 * float64(st.KernelNanos) / float64(totalNanos)
		}
		if st.Points > 0 {
			perPoint = float64(st.KernelNanos) / float64(st.Points)
		}
		sm := lowered[st.Name]
		fmt.Fprintf(w, "  %-22s %-7s %-16s %10.2f %5.1f%% %8.2f %8d %12d %9.1f%%\n",
			st.Name, sm.Elem, tierLabel(sm), st.KernelMillis(), pct, perPoint, st.Tiles, st.Points, 100*st.RecomputeFraction())
	}
	gen, pieces := 0, 0
	for _, sm := range model.Stages {
		gen += sm.Gen
		pieces += sm.Gen + sm.RowVM
	}
	m := model.GenMisses
	fmt.Fprintf(w, "  gen      %d/%d pieces; misses: %d no kernel for key, %d predicated, %d self-ref, %d irregular access\n",
		gen, pieces, m.NoKernel, m.Predicated, m.SelfRef, m.Irregular)
	hasVM := false
	for _, sm := range model.Stages {
		if sm.RowVM > 0 {
			hasVM = true
			break
		}
	}
	if hasVM {
		fmt.Fprintf(w, "  %-22s %6s %7s %6s %5s %5s %4s\n",
			"row VM", "pieces", "instrs", "fused", "regs", "bools", "f32")
		for _, sm := range model.Stages {
			if sm.RowVM == 0 {
				continue
			}
			f32 := "-"
			if sm.VMF32 {
				f32 = "yes"
			}
			fmt.Fprintf(w, "  %-22s %6d %7d %6d %5d %5d %4s\n",
				sm.Name, sm.RowVM, sm.VMInstrs, sm.VMFusedOps,
				sm.VMRegs, sm.VMBoolRegs, f32)
		}
	}
	for i, g := range snap.Groups {
		if len(g.Members) <= 1 {
			continue
		}
		modeled := 0.0
		if i < len(model.Groups) {
			modeled = model.Groups[i].MaxOverlap()
		}
		fmt.Fprintf(w, "  group %s: %d members, %d tiles/run, modeled overlap %.2f\n",
			g.Anchor, len(g.Members), g.PlannedTiles, modeled)
	}
	fmt.Fprintln(w)
}

// median is the middle of xs (the mean of the two middle values for an even
// count).
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
