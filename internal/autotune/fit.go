package autotune

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/schedule"
)

// This file fits the auto-scheduler's cost-model coefficients
// (schedule.CostWeights) against measured wall clocks: each sample pairs
// the model's term vector for one compiled schedule with its measured
// milliseconds, and FitWeights solves the nonnegative least-squares
// regression ms ≈ w · terms. Samples come from a fresh deterministic
// sweep (SweepSamples). cmd/polymage-tune -fit drives it.

// Sample is one (schedule, measurement) observation.
type Sample struct {
	// App and Config identify the observation for reporting.
	App    string `json:"app"`
	Config string `json:"config"`
	// Terms is the summed model term vector of the compiled grouping, in
	// the canonical order of schedule.GroupCost.Vector.
	Terms [5]float64 `json:"terms"`
	// Millis is the measured wall clock at 1 thread.
	Millis float64 `json:"millis"`
}

// sweepConfigs are the schedules the fitting sweep (and -auto rank
// validation) measures per app: deliberately diverse in tiling and fusion
// so the term columns vary.
func sweepConfigs() []struct {
	name string
	opts schedule.Options
} {
	mk := func(mut func(*schedule.Options)) schedule.Options {
		o := schedule.DefaultOptions()
		mut(&o)
		return o
	}
	return []struct {
		name string
		opts schedule.Options
	}{
		{"default", mk(func(o *schedule.Options) {})},
		{"tiles-16x16", mk(func(o *schedule.Options) { o.TileSizes = []int64{16, 16} })},
		{"tiles-32x32", mk(func(o *schedule.Options) { o.TileSizes = []int64{32, 32} })},
		{"tiles-64x64", mk(func(o *schedule.Options) { o.TileSizes = []int64{64, 64} })},
		{"tiles-128x128", mk(func(o *schedule.Options) { o.TileSizes = []int64{128, 128} })},
		{"tiles-64x256", mk(func(o *schedule.Options) { o.TileSizes = []int64{64, 256} })},
		{"no-fusion", mk(func(o *schedule.Options) { o.DisableFusion = true })},
	}
}

// MeasureSchedule compiles one app under the given schedule options and
// measures it at 1 thread on the interpreted tiers (generated kernels
// off, so schedule quality is what is timed).
func MeasureSchedule(app *apps.App, params map[string]int64, opts schedule.Options, runs int, seed int64) (float64, [5]float64, error) {
	pl, inputs, outs, err := compileApp(app, params, opts, seed)
	if err != nil {
		return 0, [5]float64{}, err
	}
	terms, err := schedule.PipelineTerms(pl.Grouping, schedule.AutoOptions{})
	if err != nil {
		return 0, [5]float64{}, err
	}
	ms, err := evalConfig(app, params, opts,
		engine.ExecOptions{Threads: 1, Fast: true, NoGenKernels: true}, inputs, outs, pl, runs)
	return ms, terms, err
}

// AppSamples measures every sweep configuration on one app, pairing each
// measurement with its model term vector.
func AppSamples(app *apps.App, params map[string]int64, runs int, seed int64) ([]Sample, error) {
	var out []Sample
	for _, cfg := range sweepConfigs() {
		ms, terms, err := MeasureSchedule(app, params, cfg.opts, runs, seed)
		if err != nil {
			return nil, fmt.Errorf("autotune: %s/%s: %w", app.Name, cfg.name, err)
		}
		out = append(out, Sample{App: app.Name, Config: cfg.name, Terms: terms, Millis: ms})
	}
	return out, nil
}

// scaledParams mirrors harness.ScaledParams (duplicated locally: harness
// imports autotune, so this package cannot import harness back).
func scaledParams(app *apps.App, scale int64) map[string]int64 {
	if scale <= 1 {
		return app.PaperParams
	}
	out := make(map[string]int64, len(app.PaperParams))
	for k, v := range app.PaperParams {
		s := v / scale
		if min := app.TestParams[k]; s < min {
			s = min
		}
		if s < 1 {
			s = 1
		}
		out[k] = s
	}
	return out
}

// SweepSamples compiles every registered app under a small diverse set of
// schedules, records the model's term vector for each, and measures the
// wall clock at 1 thread. Deterministic given (scale, runs, seed).
func SweepSamples(scale int64, runs int, seed int64) ([]Sample, error) {
	var out []Sample
	for _, app := range apps.All() {
		s, err := AppSamples(app, scaledParams(app, scale), runs, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, s...)
	}
	return out, nil
}

// FitWeights solves the nonnegative least-squares fit ms ≈ w · terms by
// projected coordinate descent (deterministic, ~200 sweeps). Term columns
// with no variance across the samples are unidentifiable; they keep their
// DefaultCostWeights value, rescaled into the fitted unit. The result is
// normalized so Compute = 1 when identifiable, matching the convention of
// DefaultCostWeights (only ratios matter to the search).
func FitWeights(samples []Sample) (schedule.CostWeights, error) {
	if len(samples) < 2 {
		return schedule.CostWeights{}, fmt.Errorf("autotune: need at least 2 samples, have %d", len(samples))
	}
	const dims = 5
	// Identifiability per column: the column must vary and be nonzero.
	var identifiable [dims]bool
	for j := 0; j < dims; j++ {
		lo, hi := samples[0].Terms[j], samples[0].Terms[j]
		for _, s := range samples {
			if s.Terms[j] < lo {
				lo = s.Terms[j]
			}
			if s.Terms[j] > hi {
				hi = s.Terms[j]
			}
		}
		identifiable[j] = hi > lo && hi > 0
	}
	def := DefaultVector()
	var w [dims]float64
	for j := range w {
		w[j] = def[j]
	}
	// Scale the problem so coordinate updates are well-conditioned: terms
	// are in domain points (≫ ms), so fitted weights are tiny.
	for sweep := 0; sweep < 200; sweep++ {
		for j := 0; j < dims; j++ {
			if !identifiable[j] {
				continue
			}
			num, den := 0.0, 0.0
			for _, s := range samples {
				resid := s.Millis
				for k := 0; k < dims; k++ {
					if k != j {
						resid -= w[k] * s.Terms[k]
					}
				}
				num += s.Terms[j] * resid
				den += s.Terms[j] * s.Terms[j]
			}
			if den > 0 {
				w[j] = num / den
				if w[j] < 0 {
					w[j] = 0
				}
			}
		}
	}
	// Normalize to Compute = 1; unidentifiable columns keep the default
	// ratio against Compute.
	scale := 1.0
	if identifiable[0] && w[0] > 0 {
		scale = 1 / w[0]
	}
	for j := 0; j < dims; j++ {
		if identifiable[j] {
			w[j] *= scale
		} else {
			w[j] = def[j]
		}
	}
	return schedule.CostWeights{
		Compute:   w[0],
		Recompute: w[1],
		Traffic:   w[2],
		Parallel:  w[3],
		Footprint: w[4],
	}, nil
}

// DefaultVector returns DefaultCostWeights in canonical vector order.
func DefaultVector() [5]float64 {
	d := schedule.DefaultCostWeights()
	return [5]float64{d.Compute, d.Recompute, d.Traffic, d.Parallel, d.Footprint}
}

// FitReport summarizes a fit for human inspection.
type FitReport struct {
	Weights schedule.CostWeights `json:"weights"`
	Samples int                  `json:"samples"`
	// R2 is the coefficient of determination of ms ≈ w·terms over the
	// samples (1 = perfect, ≤ 0 = no better than the mean).
	R2 float64 `json:"r2"`
}

// Report fits the samples and computes the goodness of fit. The R² is
// evaluated with the *unnormalized* regression (weights before the
// Compute=1 rescale), re-derived by a fresh scalar fit of the normalized
// prediction against the measurements.
func Report(samples []Sample) (FitReport, error) {
	w, err := FitWeights(samples)
	if err != nil {
		return FitReport{}, err
	}
	// Best scalar α mapping normalized predictions to ms.
	v := [5]float64{w.Compute, w.Recompute, w.Traffic, w.Parallel, w.Footprint}
	num, den := 0.0, 0.0
	for _, s := range samples {
		p := dot(v, s.Terms)
		num += p * s.Millis
		den += p * p
	}
	alpha := 0.0
	if den > 0 {
		alpha = num / den
	}
	mean, ssTot, ssRes := 0.0, 0.0, 0.0
	for _, s := range samples {
		mean += s.Millis
	}
	mean /= float64(len(samples))
	for _, s := range samples {
		d := s.Millis - mean
		ssTot += d * d
		r := s.Millis - alpha*dot(v, s.Terms)
		ssRes += r * r
	}
	r2 := 0.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return FitReport{Weights: w, Samples: len(samples), R2: r2}, nil
}

func dot(w, t [5]float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * t[i]
	}
	return s
}

// RankEval compares the model's predicted ranking of schedules against
// the measured ranking over one app's sweep (used by polymage-tune -auto
// to validate the cost model): it returns whether the model's predicted
// best schedule is also the measured best (top-1 hit) and the Spearman
// rank correlation between the two orderings.
func RankEval(samples []Sample, w schedule.CostWeights) (top1 bool, rho float64) {
	if len(samples) == 0 {
		return false, 0
	}
	v := [5]float64{w.Compute, w.Recompute, w.Traffic, w.Parallel, w.Footprint}
	pred := make([]float64, len(samples))
	meas := make([]float64, len(samples))
	for i, s := range samples {
		pred[i] = dot(v, s.Terms)
		meas[i] = s.Millis
	}
	pr := ranks(pred)
	mr := ranks(meas)
	n := float64(len(samples))
	d2 := 0.0
	for i := range pr {
		d := pr[i] - mr[i]
		d2 += d * d
	}
	if n > 1 {
		rho = 1 - 6*d2/(n*(n*n-1))
	} else {
		rho = 1
	}
	bestP, bestM := 0, 0
	for i := range samples {
		if pred[i] < pred[bestP] {
			bestP = i
		}
		if meas[i] < meas[bestM] {
			bestM = i
		}
	}
	return bestP == bestM, rho
}

// ranks returns average ranks (1-based; ties share the mean rank).
func ranks(xs []float64) []float64 {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	out := make([]float64, len(xs))
	for i := 0; i < len(idx); {
		j := i
		for j+1 < len(idx) && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			out[idx[k]] = avg
		}
		i = j + 1
	}
	return out
}
