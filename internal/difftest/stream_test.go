package difftest

import (
	"fmt"
	"testing"

	"repro/internal/affine"
	"repro/internal/engine"
)

// TestStreamRunnerGroups streams every accumulator and self-referencing
// case, and the predicated gather beside them, with each frame's dirty
// rectangle drawn by dirtyRect, the empty one included. An accumulator or
// a self-referencing stage runs on a runner of its own, which a dirty
// frame recomputes whole or keeps whole (keepWhole). Every frame must
// equal a whole-frame run bit for bit, and a frame with an empty ROI must
// keep every group: tiles are skipped and no stage point is evaluated.
func TestStreamRunnerGroups(t *testing.T) {
	for _, gc := range append(AccumCases(), selfRefCases()...) {
		t.Run(gc.Name, func(t *testing.T) {
			t.Parallel()
			for _, tier := range gatherTiers {
				for threads := 1; threads <= 2; threads++ {
					opts := tier.opts
					opts.Threads = threads
					opts.Metrics = true
					streamRunnerCase(t, fmt.Sprintf("%s/threads=%d", tier.name, threads), gc, opts)
				}
			}
		})
	}
}

// streamRunnerCase runs one frame per roiKinds entry after a whole first
// frame, changing the image only inside each frame's ROI.
func streamRunnerCase(t *testing.T, name string, gc GatherCase, opts engine.ExecOptions) {
	t.Helper()
	prog, err := gc.Compile(gc.Params, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer prog.Close()
	whole, err := gc.Compile(gc.Params, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer whole.Close()
	in, _ := gatherInputs(t, prog)
	img := in["I"]
	e := prog.Executor()
	points := func() int64 {
		var n int64
		for _, st := range e.Snapshot().Stages {
			n += st.Points
		}
		return n
	}
	s, err := e.NewStream(engine.StreamOptions{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer s.Close()
	empty := false
	for f := 0; f <= len(roiKinds); f++ {
		var roi affine.Box
		if f > 0 {
			roi = dirtyRect(img.Box, 1, f)
			patch := engine.NewBufferElem(img.Box, img.Elem)
			engine.FillPattern(patch, int64(f))
			img.CopyRegion(patch, roi.Intersect(img.Box))
		}
		p0, skipped0 := points(), s.Stats().TilesSkipped
		out, err := s.RunFrame(in, roi)
		if err != nil {
			t.Fatalf("%s: frame %d: %v", name, f, err)
		}
		if roi != nil && roi.Empty() {
			empty = true
			if n := points() - p0; n != 0 {
				t.Errorf("%s: frame %d: empty ROI evaluated %d points, want 0", name, f, n)
			}
			if s.Stats().TilesSkipped == skipped0 {
				t.Errorf("%s: frame %d: empty ROI skipped no tile", name, f)
			}
		}
		ref, err := whole.Run(in)
		if err != nil {
			t.Fatalf("%s: frame %d: whole run: %v", name, f, err)
		}
		for _, lo := range prog.Graph.LiveOuts {
			if d := SameBits(out[lo], ref[lo]); d != "" {
				t.Fatalf("%s: frame %d (ROI %v): %s differs from a whole-frame run: %s", name, f, roi, lo, d)
			}
		}
		whole.Executor().Recycle(ref)
	}
	if !empty {
		t.Fatalf("%s: no frame drew the empty ROI", name)
	}
}
