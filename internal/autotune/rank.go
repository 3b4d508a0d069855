package autotune

import (
	"fmt"
	"sort"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/schedule"
)

// This file checks the auto-scheduler's cost model against measured wall
// clocks by rank: each sample pairs the model's term vector for one compiled
// schedule with its measured milliseconds, and RankEval compares the order
// the model predicts with the order measured (top-1 hit, Spearman rho).
// cmd/polymage-tune -auto drives it.

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

// sweepConfigs are the schedules -auto's rank validation measures per app:
// deliberately diverse in tiling and fusion so the term columns vary.
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
// measures it at 1 thread on the row VM (generated kernels off, so
// schedule quality is what is timed).
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
		engine.ExecOptions{Threads: 1}, inputs, outs, pl, runs)
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
