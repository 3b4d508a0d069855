// polymage-benchdiff compares two benchmark JSON files produced by
// `make bench-json` (harness.BenchGenJSON / harness.BenchFleetJSON) and flags
// regressions: any configuration whose wall clock grew by more than the
// threshold (default 10%) fails the comparison and the process exits
// non-zero, so the perf trajectory between two commits can gate CI. The
// summary line reports the geomean new/old ratio over all matched
// configurations; -max-regress additionally fails the comparison when that
// geomean slowdown exceeds the given fraction, gating aggregate drift that
// stays under the per-configuration threshold.
//
// With -max-auto-regress (BENCH_auto.json files), the per-row comparison
// switches from raw wall clocks to each app's within-run auto/hand ratio —
// the quantity that stays stable across thermal sessions — and the new
// file's auto_speedup/auto_worst_ratio summary is gated absolutely.
//
// Usage:
//
//	polymage-benchdiff old.json new.json [-threshold 0.10] [-max-regress 0.05]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/harness"
)

func main() {
	threshold := flag.Float64("threshold", 0.10, "relative slowdown that counts as a regression (0.10 = 10%)")
	maxRegress := flag.Float64("max-regress", -1, "fail when the geomean slowdown over all matched configurations exceeds this fraction (negative = off)")
	minGenSpeedup := flag.Float64("min-gen-speedup", 0, "fail when the new file's generated-kernel geomean speedup (gen_speedup) is below this factor (0 = off; BENCH_gen.json files only)")
	minNarrowSpeedup := flag.Float64("min-narrow-speedup", 0, "fail when the new file's best narrow-app speedup (narrow_best_speedup) is below this factor, or a float app regressed under the inference pass beyond -threshold (0 = off; BENCH_narrow.json files only)")
	maxAutoRegress := flag.Float64("max-auto-regress", -1, "fail when the new file's auto-scheduler geomean (auto_speedup) is below 1.0x of hand-tuned, or any app regressed beyond this fraction (auto_worst_ratio; negative = off; BENCH_auto.json files only)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: polymage-benchdiff [-threshold 0.10] [-max-regress 0.05] old.json new.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	oldBF, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newBF, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	var regressions int
	var gm float64
	if *maxAutoRegress >= 0 && newBF.Summary.AutoSpeedup > 0 {
		// Auto-gate mode: the files' raw wall clocks come from different
		// thermal sessions, so the stable cross-file quantity is each
		// app's within-run auto/hand ratio, not its absolute time.
		regressions, gm = diffAutoRatios(os.Stdout, oldBF, newBF, *threshold)
	} else {
		regressions, gm = diff(os.Stdout, oldBF, newBF, *threshold)
	}
	if gm > 0 {
		fmt.Printf("\ngeomean new/old: %.3f (%+.1f%%)\n", gm, (gm-1)*100)
	}
	fail := false
	if regressions > 0 {
		fmt.Printf("FAIL: %d regression(s) beyond %.0f%%\n", regressions, *threshold*100)
		fail = true
	}
	if *maxRegress >= 0 && gm > 1+*maxRegress {
		fmt.Printf("FAIL: geomean slowdown %.1f%% beyond %.0f%%\n", (gm-1)*100, *maxRegress*100)
		fail = true
	}
	if s := newBF.Summary.GenSpeedup; s > 0 {
		fmt.Printf("generated-kernel geomean speedup: %.2fx (worst app ratio %.3f)\n", s, newBF.Summary.GenWorstRatio)
		if *minGenSpeedup > 0 && s < *minGenSpeedup {
			fmt.Printf("FAIL: gen speedup %.2fx below floor %.2fx\n", s, *minGenSpeedup)
			fail = true
		}
	} else if *minGenSpeedup > 0 {
		fmt.Printf("FAIL: -min-gen-speedup set but the new file carries no gen summary\n")
		fail = true
	}
	if s := newBF.Summary.NarrowBestSpeedup; s > 0 {
		fmt.Printf("narrow best speedup: %.2fx (geomean %.2fx, worst narrow ratio %.3f, float worst ratio %.3f)\n",
			s, newBF.Summary.NarrowSpeedup, newBF.Summary.NarrowWorstRatio, newBF.Summary.FloatWorstRatio)
		if *minNarrowSpeedup > 0 {
			if s < *minNarrowSpeedup {
				fmt.Printf("FAIL: narrow best speedup %.2fx below floor %.2fx\n", s, *minNarrowSpeedup)
				fail = true
			}
			if fr := newBF.Summary.FloatWorstRatio; fr > 1+*threshold {
				fmt.Printf("FAIL: float app regressed %.1f%% under the inference pass (beyond %.0f%%)\n",
					(fr-1)*100, *threshold*100)
				fail = true
			}
		}
	} else if *minNarrowSpeedup > 0 {
		fmt.Printf("FAIL: -min-narrow-speedup set but the new file carries no narrow summary\n")
		fail = true
	}
	if s := newBF.Summary.AutoSpeedup; s > 0 {
		fmt.Printf("auto-scheduler geomean speedup vs hand-tuned: %.2fx (worst app ratio %.3f)\n",
			s, newBF.Summary.AutoWorstRatio)
		if *maxAutoRegress >= 0 {
			if s < 1.0 {
				fmt.Printf("FAIL: auto-scheduler geomean %.2fx below hand-tuned parity\n", s)
				fail = true
			}
			if wr := newBF.Summary.AutoWorstRatio; wr > 1+*maxAutoRegress {
				fmt.Printf("FAIL: an app regressed %.1f%% under the auto-scheduler (beyond %.0f%%)\n",
					(wr-1)*100, *maxAutoRegress*100)
				fail = true
			}
		}
	} else if *maxAutoRegress >= 0 {
		fmt.Printf("FAIL: -max-auto-regress set but the new file carries no auto summary\n")
		fail = true
	}
	if fail {
		os.Exit(1)
	}
	fmt.Println("OK: no regressions beyond threshold")
}

func load(path string) (*harness.BenchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf harness.BenchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if bf.Schema != harness.BenchSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, bf.Schema, harness.BenchSchema)
	}
	return &bf, nil
}

type key struct{ name, variant string }

// diff prints a comparison table and returns the number of per-row
// regressions plus the geomean new/old ratio over matched rows (0 when
// nothing matched).
func diff(w *os.File, oldBF, newBF *harness.BenchFile, threshold float64) (int, float64) {
	oldMs := make(map[key]float64, len(oldBF.Results))
	for _, r := range oldBF.Results {
		oldMs[key{r.Name, r.Variant}] = r.Millis
	}
	fmt.Fprintf(w, "%-24s %-6s %12s %12s %9s\n", "name", "var", "old ms", "new ms", "delta")
	regressions := 0
	matched := 0
	logSum := 0.0
	for _, r := range newBF.Results {
		old, ok := oldMs[key{r.Name, r.Variant}]
		if !ok {
			fmt.Fprintf(w, "%-24s %-6s %12s %12.3f %9s\n", r.Name, r.Variant, "-", r.Millis, "new")
			continue
		}
		matched++
		delta := 0.0
		if old > 0 {
			delta = (r.Millis - old) / old
			if r.Millis > 0 {
				logSum += math.Log(r.Millis / old)
			}
		}
		mark := ""
		if delta > threshold {
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-24s %-6s %12.3f %12.3f %+8.1f%%%s\n", r.Name, r.Variant, old, r.Millis, delta*100, mark)
	}
	if matched == 0 {
		fmt.Fprintln(w, "warning: no overlapping configurations between the two files")
		return regressions, 0
	}
	return regressions, math.Exp(logSum / float64(matched))
}

// diffAutoRatios compares two BENCH_auto.json files by each app's
// auto/hand time ratio — the quantity the interleaved bench measures
// within one session and the only one stable across sessions (absolute
// wall clocks drift with machine state). A row regresses when an app's
// ratio grew by more than the threshold. Returns the regression count and
// the geomean of new/old ratio quotients.
func diffAutoRatios(w *os.File, oldBF, newBF *harness.BenchFile, threshold float64) (int, float64) {
	ratios := func(bf *harness.BenchFile) map[string]float64 {
		ms := make(map[key]float64, len(bf.Results))
		for _, r := range bf.Results {
			ms[key{r.Name, r.Variant}] = r.Millis
		}
		out := make(map[string]float64)
		for k, auto := range ms {
			if k.variant != "auto" {
				continue
			}
			if hand := ms[key{k.name, "hand"}]; hand > 0 {
				out[k.name] = auto / hand
			}
		}
		return out
	}
	oldR, newR := ratios(oldBF), ratios(newBF)
	fmt.Fprintf(w, "%-24s %12s %12s %9s\n", "name", "old a/h", "new a/h", "delta")
	names := make([]string, 0, len(newR))
	for n := range newR {
		names = append(names, n)
	}
	sort.Strings(names)
	regressions, matched, logSum := 0, 0, 0.0
	for _, n := range names {
		nr := newR[n]
		or, ok := oldR[n]
		if !ok {
			fmt.Fprintf(w, "%-24s %12s %12.3f %9s\n", n, "-", nr, "new")
			continue
		}
		matched++
		delta := (nr - or) / or
		logSum += math.Log(nr / or)
		mark := ""
		if delta > threshold {
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-24s %12.3f %12.3f %+8.1f%%%s\n", n, or, nr, delta*100, mark)
	}
	if matched == 0 {
		fmt.Fprintln(w, "warning: no overlapping apps between the two auto files")
		return regressions, 0
	}
	return regressions, math.Exp(logSum / float64(matched))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "polymage-benchdiff:", err)
	os.Exit(1)
}
