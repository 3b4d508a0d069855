// polymage-bench regenerates the paper's evaluation tables and figures:
// Table 2 (execution times and speedups), Figure 10 (speedup-over-base per
// variant and core count) and Figure 9 (autotuning scatter data).
//
// Usage:
//
//	polymage-bench -table2 [-scale 4] [-runs 3]
//	polymage-bench -figure10 [-cores 1,2,4]
//	polymage-bench -figure9 [-full-space]
//	polymage-bench -stats
//	polymage-bench -all
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	_ "repro/internal/apps/gen" // ahead-of-time kernels for the Table-2 apps

	"repro/internal/autotune"
	"repro/internal/harness"
)

func main() {
	table2 := flag.Bool("table2", false, "regenerate Table 2")
	figure10 := flag.Bool("figure10", false, "regenerate Figure 10")
	figure9 := flag.Bool("figure9", false, "regenerate Figure 9")
	all := flag.Bool("all", false, "regenerate everything")
	scale := flag.Int64("scale", 4, "divide paper image sizes by this factor (1 = paper size)")
	runs := flag.Int("runs", 3, "timed runs per point (first discarded as warm-up)")
	threads := flag.Int("threads", 0, "threads for the '16 core' column (0 = GOMAXPROCS)")
	coresFlag := flag.String("cores", "1,2,4", "comma-separated core counts for Figure 10")
	fullSpace := flag.Bool("full-space", false, "Figure 9: use the paper's full 147-point space (slow)")
	tune := flag.Bool("tune", false, "autotune tile sizes for the opt variants before measuring")
	csvOut := flag.Bool("csv", false, "emit Figure 9/10 data as CSV instead of tables")
	stats := flag.Bool("stats", false, "run every app with executor metrics on and print per-stage breakdowns")
	seed := flag.Int64("seed", harness.DefaultSeed, "seed for synthetic benchmark inputs")
	flag.Parse()

	if *stats {
		cfg := harness.Config{Scale: *scale, Runs: *runs, Threads: *threads, Seed: *seed}
		if err := harness.Stats(os.Stdout, cfg); err != nil {
			fatal(err)
		}
		return
	}
	if !*table2 && !*figure10 && !*figure9 && !*all {
		flag.Usage()
		os.Exit(2)
	}
	cfg := harness.Config{Scale: *scale, Runs: *runs, Threads: *threads, Tune: *tune, Seed: *seed}

	if *table2 || *all {
		if err := harness.Table2(os.Stdout, cfg); err != nil {
			fatal(err)
		}
	}
	if *figure10 || *all {
		var cores []int
		for _, s := range strings.Split(*coresFlag, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				fatal(fmt.Errorf("bad -cores value %q: %v", s, err))
			}
			cores = append(cores, c)
		}
		if *csvOut {
			if err := harness.Figure10CSV(os.Stdout, cfg, cores); err != nil {
				fatal(err)
			}
		} else if err := harness.Figure10(os.Stdout, cfg, cores); err != nil {
			fatal(err)
		}
	}
	if *figure9 || *all {
		space := autotune.QuickSpace()
		if *fullSpace {
			space = autotune.FullSpace()
		}
		if *csvOut {
			if err := harness.Figure9CSV(os.Stdout, cfg, space); err != nil {
				fatal(err)
			}
		} else if err := harness.Figure9(os.Stdout, cfg, space); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polymage-bench:", err)
	os.Exit(1)
}
