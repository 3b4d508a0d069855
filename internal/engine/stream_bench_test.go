package engine_test

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/schedule"
)

// BenchmarkStreamROI times dirty-rectangle frames of harris at scale 4
// under the auto-scheduler, the shape of bench/'s stream-roi workload:
// after one whole frame, each frame refreshes the centred quarter (per
// dimension) of the input and passes it as the ROI. The refresh is inside
// the timed loop. No kernel package is linked into the engine's tests, so
// every piece runs on the row VM.
func BenchmarkStreamROI(b *testing.B) {
	app, err := apps.Get("harris")
	if err != nil {
		b.Fatal(err)
	}
	bld, outs := app.Build()
	params := harness.ScaledParams(app, 4)
	so := schedule.DefaultOptions()
	so.Auto = true
	pl, err := core.Compile(bld, outs, core.Options{Estimates: params, Schedule: so, AllowUnproven: true})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := pl.Bind(params, engine.ExecOptions{Fast: true, ReuseBuffers: true})
	if err != nil {
		b.Fatal(err)
	}
	defer prog.Close()
	in, err := app.Inputs(bld, params, 1)
	if err != nil {
		b.Fatal(err)
	}
	s, err := prog.Executor().NewStream(engine.StreamOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunFrame(in, nil); err != nil {
		b.Fatal(err)
	}
	img := in["I"]
	if img == nil || len(in) != 1 {
		b.Fatalf("harris inputs %v, want the one image I", in)
	}
	roi := make(affine.Box, len(img.Box))
	for d, r := range img.Box {
		q := max(r.Size()/4, 1)
		lo := r.Lo + (r.Size()-q)/2
		roi[d] = affine.Range{Lo: lo, Hi: lo + q - 1}
	}
	patch := &engine.Buffer{}
	before := s.Stats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		patch.ResetElem(roi, img.Elem)
		engine.FillPattern(patch, int64(i)+2)
		img.CopyRegion(patch, roi)
		if _, err := s.RunFrame(in, roi); err != nil {
			b.Fatal(err)
		}
	}
	st := s.Stats()
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/frame")
	b.ReportMetric(float64(st.TilesExecuted-before.TilesExecuted)/float64(b.N), "tiles_executed/frame")
	b.ReportMetric(float64(st.TilesSkipped-before.TilesSkipped)/float64(b.N), "tiles_skipped/frame")
}
