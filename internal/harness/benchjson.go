package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/apps"
	"repro/internal/baseline"
	"repro/internal/engine"
	"repro/internal/schedule"
)

// Machine-readable benchmark records (make bench-json -> BENCH_*.json): one
// BenchFile per feature-vs-twin measurement (generated kernels here; fleet,
// stream, narrow and auto in their own files). cmd/polymage-benchdiff
// compares two such files and flags regressions.

// BenchSchema identifies the JSON layout of a BenchFile.
const BenchSchema = "polymage-bench/v1"

// BenchResult is one timed configuration.
type BenchResult struct {
	// Name is the app ("harris") or workload ("fleet-sameprog-1client").
	Name string `json:"name"`
	// Kind is "app" (Table-2 or narrow pipeline), "fleet" or "stream".
	Kind string `json:"kind"`
	// Variant names the side of the comparison the row belongs to ("gen" or
	// "vm", "auto" or "hand", "narrow" or "wide", ...).
	Variant string `json:"variant"`
	// Millis is the average wall clock per run (warm-up discarded).
	Millis float64 `json:"millis"`
	// Threads used for this measurement.
	Threads int `json:"threads"`
}

// BenchSummary aggregates a BenchFile: geomeans over the apps per variant
// and the resulting speedup factors.
type BenchSummary struct {
	// Fleet summary (files written by BenchFleetJSON only).
	//
	// FleetSaturationSpeedup is serial/fleet aggregate ms-per-request at
	// the saturation point (8 clients × 4 programs): > 1 means the shared
	// fleet beats the serialized per-program baseline by that factor. The
	// achievable value is bounded by the core count — on a 1-core machine
	// it hovers near 1 because both sides are compute-bound on one CPU.
	FleetSaturationSpeedup float64 `json:"fleet_saturation_speedup,omitempty"`
	// FleetSameProgramScaling is 1-client/2-client ms-per-request on one
	// program: > 1 means two concurrent runs of the same program no
	// longer serialize (again bounded by available cores).
	FleetSameProgramScaling float64 `json:"fleet_sameprog_scaling,omitempty"`

	// Stream summary (files written by BenchStreamJSON only).
	//
	// StreamROISpeedup is fullframe/dirtyrect ms-per-frame on a Table-2
	// stencil whose per-frame input change is confined to a small ROI:
	// > 1 means the dirty-rectangle path beats whole-frame recompute by
	// that factor.
	StreamROISpeedup float64 `json:"stream_roi_speedup,omitempty"`
	// StreamTilesSkippedShare is the fraction of the dirty-rectangle
	// run's tiles that were copied from the previous frame rather than
	// recomputed.
	StreamTilesSkippedShare float64 `json:"stream_tiles_skipped_share,omitempty"`

	// Gen summary (files written by BenchGenJSON only).
	//
	// AppGeomeanGenMillis / AppGeomeanGenOffMillis are the Table-2 app
	// geomeans at 1 thread with ahead-of-time kernels attached ("gen")
	// and pinned off ("vm" — the interpreted tiers).
	AppGeomeanGenMillis    float64 `json:"app_geomean_gen_ms,omitempty"`
	AppGeomeanGenOffMillis float64 `json:"app_geomean_genoff_ms,omitempty"`
	// GenSpeedup is vm/gen: > 1 means the generated kernels are faster
	// overall.
	GenSpeedup float64 `json:"gen_speedup,omitempty"`
	// GenWorstRatio is max over apps of gen/vm: > 1 means some app
	// regressed under generated kernels, by that factor.
	GenWorstRatio float64 `json:"gen_worst_ratio,omitempty"`
	// GenPieces maps app name to the number of pieces that ran on
	// generated kernels (0 means no kernel package is linked).
	GenPieces map[string]int `json:"gen_pieces,omitempty"`

	// Narrow summary (files written by BenchNarrowJSON only).
	//
	// AppGeomeanNarrowMillis / AppGeomeanWideMillis are the narrow-app
	// geomeans under the narrow (uint8/uint16 storage, integer tiers) and
	// float32 layouts of the same pipelines.
	AppGeomeanNarrowMillis float64 `json:"app_geomean_narrow_ms,omitempty"`
	AppGeomeanWideMillis   float64 `json:"app_geomean_wide_ms,omitempty"`
	// NarrowSpeedup is wide/narrow: > 1 means the narrow layout is faster
	// overall.
	NarrowSpeedup float64 `json:"narrow_speedup,omitempty"`
	// NarrowBestSpeedup is the max per-app wide/narrow ratio — the ISSUE
	// gate demands at least one memory-bound stencil app clear 1.3x.
	NarrowBestSpeedup float64 `json:"narrow_best_speedup,omitempty"`
	// NarrowWorstRatio is max over narrow apps of narrow/wide: > 1 means
	// some narrow app is slower than its float32 layout, by that factor.
	NarrowWorstRatio float64 `json:"narrow_worst_ratio,omitempty"`
	// FloatWorstRatio is max over the float Table-2 apps of the wall-clock
	// ratio with the inference pass on vs off — the pass must be a no-op on
	// float pipelines, so this hovers at 1 up to timing noise.
	FloatWorstRatio float64 `json:"float_worst_ratio,omitempty"`
	// NarrowStages maps narrow app name to the number of stages stored
	// with a narrow element type (0 means inference failed to narrow).
	NarrowStages map[string]int `json:"narrow_stages,omitempty"`

	// Auto summary (files written by BenchAutoJSON only).
	//
	// AppGeomeanAutoMillis / AppGeomeanHandMillis are the Table-2 app
	// geomeans at 1 thread under the cost-model auto-scheduler ("auto")
	// and the paper's hand-tuned default schedule ("hand"), both on the
	// interpreted tiers (generated kernels pinned off so schedule quality
	// is measured, not kernel-cache coverage).
	AppGeomeanAutoMillis float64 `json:"app_geomean_auto_ms,omitempty"`
	AppGeomeanHandMillis float64 `json:"app_geomean_hand_ms,omitempty"`
	// AutoSpeedup is hand/auto: ≥ 1 means the searched schedules are at
	// parity or better overall (the ROADMAP win condition).
	AutoSpeedup float64 `json:"auto_speedup,omitempty"`
	// AutoWorstRatio is max over apps of auto/hand: > 1 means some app
	// regressed under the auto-scheduler, by that factor.
	AutoWorstRatio float64 `json:"auto_worst_ratio,omitempty"`
	// AutoGroups maps app name to the searched schedule's group count
	// (a quick structural fingerprint of what the search chose).
	AutoGroups map[string]int `json:"auto_groups,omitempty"`
	// AutoIdentical lists apps where the search reproduced the hand
	// schedule exactly (same groups, tiles and inlining): their auto/hand
	// ratio is 1 by construction and one measurement serves both rows.
	AutoIdentical []string `json:"auto_identical,omitempty"`
}

// BenchFile is the root JSON document.
type BenchFile struct {
	Schema    string        `json:"schema"`
	Timestamp string        `json:"timestamp"`
	Scale     int64         `json:"scale"`
	Runs      int           `json:"runs"`
	Results   []BenchResult `json:"results"`
	Summary   BenchSummary  `json:"summary"`
}

// BenchGenJSON measures every Table-2 app (opt+vec variant) at one thread
// with ahead-of-time generated kernels attached ("gen") and pinned off
// ("vm" — the interpreted stencil/row tiers) and writes the
// BenchFile JSON to w. The caller must link the generated-kernel package
// (blank-import repro/internal/apps/gen) or every piece is a key miss
// and both variants time the interpreter.
func BenchGenJSON(w io.Writer, cfg Config) error {
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
	var genMs, offMs []float64
	worst := 0.0
	bf.Summary.GenPieces = make(map[string]int)
	for _, app := range apps.All() {
		params := ScaledParams(app, cfg.Scale)
		var ms [2]float64
		for i, noGen := range []bool{false, true} {
			p, err := PrepareEngine(app, v, params, 1, schedule.DefaultOptions(), cfg.Seed,
				func(o *engine.ExecOptions) { o.NoGenKernels = noGen })
			if err != nil {
				return fmt.Errorf("%s: %w", app.Name, err)
			}
			if !noGen {
				n := 0
				for _, sm := range p.Prog.Stats().Stages {
					n += sm.Gen
				}
				bf.Summary.GenPieces[app.Name] = n
			}
			// Best of three measurement batches: single-thread wall clocks
			// wobble ±15% with scheduler/GC noise, and a comparison file
			// built from one batch per variant records that noise as a
			// speedup or regression. The minimum of several batch means is
			// the standard noise-robust statistic here.
			best := 0.0
			for batch := 0; batch < 3; batch++ {
				t, merr := p.Measure(cfg.Runs)
				if merr != nil {
					p.Close()
					return fmt.Errorf("%s: %w", app.Name, merr)
				}
				if batch == 0 || t < best {
					best = t
				}
			}
			ms[i] = best
			p.Close()
		}
		bf.Results = append(bf.Results,
			BenchResult{Name: app.Name, Kind: "app", Variant: "gen", Millis: ms[0], Threads: 1},
			BenchResult{Name: app.Name, Kind: "app", Variant: "vm", Millis: ms[1], Threads: 1})
		genMs = append(genMs, ms[0])
		offMs = append(offMs, ms[1])
		if r := ms[0] / ms[1]; r > worst {
			worst = r
		}
	}
	bf.Summary.AppGeomeanGenMillis = geomean(genMs)
	bf.Summary.AppGeomeanGenOffMillis = geomean(offMs)
	if bf.Summary.AppGeomeanGenMillis > 0 {
		bf.Summary.GenSpeedup = bf.Summary.AppGeomeanGenOffMillis / bf.Summary.AppGeomeanGenMillis
	}
	bf.Summary.GenWorstRatio = worst
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bf)
}
