package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/schedule"
)

// scheduleSig is an exact identity for a bound program's schedule: the
// (inlining-reduced) stage order plus the grouping's digest. Equal
// signatures mean the two programs execute the same plan.
func scheduleSig(p *Prepared) string {
	return strings.Join(p.Prog.Graph.Order, ",") + ";" + p.Prog.Grouping.Digest()
}

// BenchAutoJSON measures every Table-2 app (opt+vec variant, 1 thread)
// under the cost-model auto-scheduler ("auto") and the paper's hand-tuned
// default schedule ("hand"), and writes the BenchFile JSON to w. Both
// variants run the default configuration — generated kernels bind under
// either schedule when the binary links internal/apps/gen. make auto-gate
// feeds the result to polymage-benchdiff -max-auto-regress.
func BenchAutoJSON(w io.Writer, cfg Config) error {
	bf := &BenchFile{
		Schema:    BenchSchema,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		Scale:     cfg.Scale,
		Runs:      cfg.Runs,
	}
	v, err := baseline.Get("opt+vec")
	if err != nil {
		return err
	}
	var autoMs, handMs []float64
	worst := 0.0
	bf.Summary.AutoGroups = make(map[string]int)
	for _, app := range apps.All() {
		params := ScaledParams(app, cfg.Scale)
		var prep [2]*Prepared
		for i, auto := range []bool{true, false} {
			so := schedule.DefaultOptions()
			so.Auto = auto
			p, err := Prepare(app, v, params, 1, so, cfg.Seed)
			if err != nil {
				return fmt.Errorf("%s: %w", app.Name, err)
			}
			prep[i] = p
			if auto {
				bf.Summary.AutoGroups[app.Name] = len(p.Prog.Grouping.Groups)
			}
		}
		// When the search lands on the hand schedule exactly, the two
		// programs are the same plan: one measurement serves both, and the
		// ratio is 1 by construction rather than measurement noise.
		identical := scheduleSig(prep[0]) == scheduleSig(prep[1])
		if identical {
			bf.Summary.AutoIdentical = append(bf.Summary.AutoIdentical, app.Name)
		}
		// Interleaved best-of-three batches: alternating the variants
		// within each batch cancels warm-up and frequency-ramp bias that a
		// fixed measurement order would fold into the ratio.
		var ms [2]float64
		for batch := 0; batch < 3; batch++ {
			for i := range prep {
				if identical && i == 1 {
					ms[1] = ms[0]
					continue
				}
				t, merr := prep[i].Measure(cfg.Runs)
				if merr != nil {
					prep[0].Close()
					prep[1].Close()
					return fmt.Errorf("%s: %w", app.Name, merr)
				}
				if batch == 0 || t < ms[i] {
					ms[i] = t
				}
			}
		}
		prep[0].Close()
		prep[1].Close()
		bf.Results = append(bf.Results,
			BenchResult{Name: app.Name, Kind: "app", Variant: "auto", Millis: ms[0], Threads: 1},
			BenchResult{Name: app.Name, Kind: "app", Variant: "hand", Millis: ms[1], Threads: 1})
		autoMs = append(autoMs, ms[0])
		handMs = append(handMs, ms[1])
		if r := ms[0] / ms[1]; r > worst {
			worst = r
		}
	}
	bf.Summary.AppGeomeanAutoMillis = geomean(autoMs)
	bf.Summary.AppGeomeanHandMillis = geomean(handMs)
	if bf.Summary.AppGeomeanAutoMillis > 0 {
		bf.Summary.AutoSpeedup = bf.Summary.AppGeomeanHandMillis / bf.Summary.AppGeomeanAutoMillis
	}
	bf.Summary.AutoWorstRatio = worst
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bf)
}
