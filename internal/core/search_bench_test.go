package core_test

import (
	"testing"

	"repro/internal/apps"
	_ "repro/internal/apps/gen" // BenchmarkBind binds the generated kernels, as polymage-serve does
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
)

var benchSink *core.Pipeline

// BenchmarkSearch times core.Compile under the auto-scheduler for each
// Table-2 app at scale 4 — what a program-cache miss of polymage-serve pays
// before lowering (bench/'s schedule.group_ms rows, without bench/), with
// the search's counters.
func BenchmarkSearch(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.Name, func(b *testing.B) {
			bld, outs := app.Build()
			c := searchCase{app.Name, bld, outs, harness.ScaledParams(app, 4)}
			for i := 0; i < b.N; i++ {
				pl, err := compileSearched(c)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = pl
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/compile")
			st := benchSink.Grouping.Search
			b.ReportMetric(float64(st.States), "states")
			b.ReportMetric(float64(st.AxisProbes), "axis_probes")
			b.ReportMetric(float64(st.PerDimEvals), "perdim_evals")
			b.ReportMetric(float64(st.EnumeratedEvals), "enumerated_evals")
		})
	}
}

// BenchmarkBind times the other half of a program-cache miss: Pipeline.Bind
// of a searched Table-2 app at scale 4 under the options polymage-serve
// binds with (Fast, ReuseBuffers, generated kernels linked) — stage
// lowering, row-VM compilation, kernel lookup and tile planning.
func BenchmarkBind(b *testing.B) {
	for _, app := range apps.All() {
		b.Run(app.Name, func(b *testing.B) {
			bld, outs := app.Build()
			params := harness.ScaledParams(app, 4)
			pl, err := compileSearched(searchCase{app.Name, bld, outs, params})
			if err != nil {
				b.Fatal(err)
			}
			eo := engine.ExecOptions{Fast: true, ReuseBuffers: true}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prog, err := pl.Bind(params, eo)
				if err != nil {
					b.Fatal(err)
				}
				prog.Close()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/bind")
		})
	}
}
