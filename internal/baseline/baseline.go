// Package baseline defines the execution variants compared in the paper's
// evaluation (Figure 10 and Table 2): the PolyMage configurations (base,
// base+vec, opt, opt+vec) and the Halide-schedule stand-ins (tuned,
// matched), per DESIGN.md substitution notes 3 and 5.
package baseline

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/schedule"
)

// Variant names one point on Figure 10's legend.
type Variant struct {
	// Name is the registry key (e.g. "opt+vec").
	Name string
	// Label as printed in figures (e.g. "PolyMage(opt+vec)").
	Label string
	// Schedule derives the scheduling options from the tuned base options
	// (tile sizes / threshold chosen by the autotuner or defaults).
	Schedule func(base schedule.Options) schedule.Options
	// Fast enables generated kernels (the `+vec` axis); without it every
	// piece runs on the row VM.
	Fast bool
}

var variants = []Variant{
	{
		Name:  "base",
		Label: "PolyMage(base)",
		// All scalar optimizations including inlining, but no grouping,
		// tiling or storage optimization (the paper's baseline).
		Schedule: func(b schedule.Options) schedule.Options {
			b.DisableFusion = true
			return b
		},
	},
	{
		Name:  "base+vec",
		Label: "PolyMage(base+vec)",
		Schedule: func(b schedule.Options) schedule.Options {
			b.DisableFusion = true
			return b
		},
		Fast: true,
	},
	{
		Name:     "opt",
		Label:    "PolyMage(opt)",
		Schedule: func(b schedule.Options) schedule.Options { return b },
	},
	{
		Name:     "opt+vec",
		Label:    "PolyMage(opt+vec)",
		Schedule: func(b schedule.Options) schedule.Options { return b },
		Fast:     true,
	},
	{
		Name:  "htuned",
		Label: "Halide(tuned)",
		// Halide's hand-tuned schedules parallelize, tile and vectorize
		// each stage but perform little or no cross-stage fusion with
		// recomputation (explicitly none for Multiscale Interpolate and
		// Local Laplacian). Model: only zero-overlap (point-wise) merges.
		Schedule: func(b schedule.Options) schedule.Options {
			b.OverlapThreshold = 1e-9
			return b
		},
	},
	{
		Name:  "htuned+vec",
		Label: "Halide(tuned+vec)",
		Schedule: func(b schedule.Options) schedule.Options {
			b.OverlapThreshold = 1e-9
			return b
		},
		Fast: true,
	},
	{
		Name:  "hmatched",
		Label: "Halide(matched)",
		// The paper's H-matched specifies PolyMage's grouping in Halide;
		// model: PolyMage fusion with Halide-conventional square tiles.
		Schedule: func(b schedule.Options) schedule.Options {
			b.TileSizes = []int64{64, 64}
			return b
		},
	},
	{
		Name:  "hmatched+vec",
		Label: "Halide(matched+vec)",
		Schedule: func(b schedule.Options) schedule.Options {
			b.TileSizes = []int64{64, 64}
			return b
		},
		Fast: true,
	},
}

// Get looks a variant up by name.
func Get(name string) (Variant, error) {
	for _, v := range variants {
		if v.Name == name {
			return v, nil
		}
	}
	return Variant{}, fmt.Errorf("baseline: unknown variant %q (have %v)", name, Names())
}

// Names lists the variant registry keys in Figure 10 legend order.
func Names() []string {
	out := make([]string, len(variants))
	for i, v := range variants {
		out[i] = v.Name
	}
	return out
}

// All returns the variants in Figure 10 legend order.
func All() []Variant { return variants }

// EngineOptions builds the execution options for a variant at a thread
// count.
func (v Variant) EngineOptions(threads int) engine.ExecOptions {
	return engine.ExecOptions{Threads: threads, Fast: v.Fast}
}
