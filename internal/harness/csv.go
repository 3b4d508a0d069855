package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/apps"
	"repro/internal/autotune"
)

// Figure9CSV writes the autotuning scatter data (Figure 9) as CSV with
// columns app, tile0, tile1, othresh, ms_1core, ms_ncore — ready for
// plotting.
func Figure9CSV(w io.Writer, cfg Config, space autotune.Space) error {
	threads := effThreads(cfg.Threads)
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"app", "tile0", "tile1", "othresh", "ms_1core", fmt.Sprintf("ms_%dcore", threads)}); err != nil {
		return err
	}
	for _, fa := range figure9Apps {
		app, err := apps.Get(fa.name)
		if err != nil {
			return err
		}
		params := ScaledParams(app, cfg.Scale)
		results, err := autotune.Scatter(app, params, space, threads, cfg.Seed, true)
		if err != nil {
			return err
		}
		for _, r := range results {
			rec := []string{
				app.Name,
				strconv.FormatInt(r.Options.TileSizes[0], 10),
				strconv.FormatInt(r.Options.TileSizes[1], 10),
				strconv.FormatFloat(r.Options.OverlapThreshold, 'f', 2, 64),
				strconv.FormatFloat(r.Ms1, 'f', 3, 64),
				strconv.FormatFloat(r.Ms, 'f', 3, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

// Figure10CSV writes the variant-comparison data (Figure 10) as CSV with
// columns app, variant, cores, speedup_over_base; cores is the thread count
// the engine ran (see figure10Line).
func Figure10CSV(w io.Writer, cfg Config, cores []int) error {
	lines, err := measureFigure10(cfg, cores)
	if err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"app", "variant", "cores", "speedup_over_base"}); err != nil {
		return err
	}
	for _, l := range lines {
		for i, c := range l.cores {
			rec := []string{
				l.app.Name, l.variant, strconv.Itoa(c),
				strconv.FormatFloat(l.speedup[i], 'f', 3, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}
