package core_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/harness"
)

var benchSink *core.Pipeline

// BenchmarkSearch times core.Compile under the auto-scheduler for each
// Table-2 app at scale 4 — what a program-cache miss of polymage-serve pays
// before lowering (bench/'s schedule.group_ms rows, without bench/). The
// search counters are those of the search whose graph was kept.
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
			b.ReportMetric(float64(st.CostEvals), "cost_evals")
			b.ReportMetric(float64(st.CostCacheHits), "cache_hits")
			b.ReportMetric(float64(st.PerDimEvals), "perdim_evals")
			b.ReportMetric(float64(st.EnumeratedEvals), "enumerated_evals")
		})
	}
}
