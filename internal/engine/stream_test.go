package engine

import (
	"errors"
	"fmt"
	"maps"
	"sync"
	"testing"

	"repro/internal/affine"
	"repro/internal/buffer"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
	"repro/internal/schedule"
)

func cloneBuf(src *Buffer) *Buffer {
	b := &Buffer{}
	b.Reset(src.Box)
	copy(b.Data, src.Data)
	return b
}

// bumpRegion adds delta to every point of b inside region.
func bumpRegion(b *Buffer, region affine.Box, delta float32) {
	for x := region[0].Lo; x <= region[0].Hi; x++ {
		for y := region[1].Lo; y <= region[1].Hi; y++ {
			b.Set(b.At(x, y)+delta, x, y)
		}
	}
}

// TestStreamDirtyRectHarris is the tentpole correctness check: a
// dirty-rectangle frame must produce outputs bitwise identical to a
// whole-frame run on the same inputs while recomputing only the points
// whose reads meet the changed rectangle: harris reads its input through
// two 3×3 stencils, so the frame evaluates harris exactly on the
// rectangle dilated by 2.
func TestStreamDirtyRectHarris(t *testing.T) {
	prog, inputs, ref := compileHarris(t, ExecOptions{Fast: true, Threads: 4, Metrics: true})
	defer prog.Close()
	e := prog.Executor()
	s, err := e.NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	out0, err := s.RunFrame(inputs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eq, msg := out0["harris"].Equal(ref["harris"], 1e-5); !eq {
		t.Fatalf("frame 0 differs from reference: %s", msg)
	}

	// Frame 1: the input changes only inside a small rectangle.
	roi := affine.Box{{Lo: 30, Hi: 42}, {Lo: 50, Hi: 66}}
	mod := cloneBuf(inputs["I"])
	bumpRegion(mod, roi, 0.75)
	want, err := e.Run(map[string]*Buffer{"I": mod})
	if err != nil {
		t.Fatal(err)
	}
	before := stagePoints(e, "harris")
	out1, err := s.RunFrame(map[string]*Buffer{"I": mod}, roi)
	if err != nil {
		t.Fatal(err)
	}
	dilated := affine.Box{{Lo: roi[0].Lo - 2, Hi: roi[0].Hi + 2}, {Lo: roi[1].Lo - 2, Hi: roi[1].Hi + 2}}.Intersect(out0["harris"].Box)
	if got := stagePoints(e, "harris") - before; got != dilated.Size() {
		t.Errorf("dirty-rect frame evaluated %d harris points, want |roi ⊕ 2 ∩ domain| = %d", got, dilated.Size())
	}
	for name, wb := range want {
		if eq, msg := out1[name].Equal(wb, 0); !eq {
			t.Fatalf("dirty-rect frame: %s differs from whole-frame run: %s", name, msg)
		}
	}
	// Without feedback, every frame overwrites the first frame's buffers.
	sameBuffers(t, out0, out1, nil)
	st := s.Stats()
	if st.Frames != 2 {
		t.Fatalf("Stats.Frames = %d, want 2", st.Frames)
	}
	if st.TilesSkipped == 0 {
		t.Fatalf("dirty-rect frame skipped no tiles (executed %d): partial recompute is not engaging", st.TilesExecuted)
	}
	if st.TilesExecuted == 0 {
		t.Fatal("dirty-rect frame executed no tiles despite a non-empty ROI")
	}

	// Frame 2: an empty ROI means nothing changed — no tile runs, no
	// buffer moves and every value stays as it was.
	executedBefore := st.TilesExecuted
	kept := make(map[string]*Buffer, len(out1))
	for name, b := range out1 {
		kept[name] = cloneBuf(b)
	}
	arenaBefore := e.Snapshot().Arena
	out2, err := s.RunFrame(map[string]*Buffer{"I": mod}, affine.Box{{Lo: 0, Hi: -1}, {Lo: 0, Hi: -1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, kb := range kept {
		if eq, msg := out2[name].Equal(kb, 0); !eq {
			t.Fatalf("empty-ROI frame: %s differs: %s", name, msg)
		}
	}
	if a := e.Snapshot().Arena; a != arenaBefore {
		t.Fatalf("empty-ROI frame moved the arena: %+v, was %+v", a, arenaBefore)
	}
	sameBuffers(t, out1, out2, nil)
	st = s.Stats()
	if st.TilesExecuted != executedBefore {
		t.Fatalf("empty-ROI frame executed %d tiles, want 0", st.TilesExecuted-executedBefore)
	}

	// The obs layer must see the same story: frame counters, the latency
	// histogram and per-group skip counts.
	snap := e.Snapshot()
	if snap.Frames != 3 {
		t.Fatalf("Snapshot.Frames = %d, want 3", snap.Frames)
	}
	if len(snap.FrameHist) == 0 {
		t.Fatal("Snapshot.FrameHist is empty after streamed frames")
	}
	var hist int64
	for _, n := range snap.FrameHist {
		hist += n
	}
	if hist != 3 {
		t.Fatalf("FrameHist sums to %d, want 3", hist)
	}
	var skipped int64
	for _, g := range snap.Groups {
		skipped += g.TilesSkipped
	}
	if skipped != st.TilesSkipped {
		t.Fatalf("Snapshot TilesSkipped = %d, Stats = %d", skipped, st.TilesSkipped)
	}
}

// maxROIFrameAllocs is what a steady-state ROI frame of compileHarris's
// program allocates: the frame's bookkeeping (the sections' closures); the
// dirty map keeps its boxes' storage from frame to frame.
const maxROIFrameAllocs = 7

// TestStreamFrameAllocs pins the allocations of a steady-state
// dirty-rectangle frame: computing every group's affected boxes and
// clipping every tile to them reuse the stream's and the workers' storage,
// so an ROI frame allocates no more than before.
func TestStreamFrameAllocs(t *testing.T) {
	prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 1})
	defer prog.Close()
	s, err := prog.Executor().NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	roi := affine.Box{{Lo: 30, Hi: 42}, {Lo: 50, Hi: 66}}
	frame := func() {
		if _, err := s.RunFrame(inputs, roi); err != nil {
			t.Fatal(err)
		}
	}
	frame() // the whole first frame
	frame() // warm the ROI path's storage
	allocs := testing.AllocsPerRun(10, frame)
	t.Logf("steady-state ROI frame: %.0f allocations", allocs)
	if allocs > maxROIFrameAllocs {
		t.Errorf("steady-state ROI frame allocates %.0f times, want <= %d", allocs, maxROIFrameAllocs)
	}
}

// stagePoints reads the points the executor has evaluated for stage name so
// far (ExecOptions.Metrics).
func stagePoints(e *Executor, name string) int64 {
	for _, st := range e.Snapshot().Stages {
		if st.Name == name {
			return st.Points
		}
	}
	return 0
}

// sameBuffers demands that frame cur returned every stage of frame prev as
// the same buffer, overwritten in place, except the feedback sources in
// fed, which must come back as fresh buffers.
func sameBuffers(t *testing.T, prev, cur map[string]*Buffer, fed map[string]bool) {
	t.Helper()
	if len(cur) != len(prev) {
		t.Fatalf("frame returned %d buffers, the one before %d", len(cur), len(prev))
	}
	for name, b := range prev {
		if same := cur[name] == b; same == fed[name] {
			t.Errorf("%s: same buffer as the previous frame = %v, want %v", name, same, !fed[name])
		}
	}
}

// TestStreamROIErrors: an ROI whose rank matches no input image fails with
// ErrROI; frames on a closed stream fail with ErrClosed.
func TestStreamROIErrors(t *testing.T) {
	prog, inputs, _ := compileHarris(t, ExecOptions{Fast: true, Threads: 2})
	defer prog.Close()
	s, err := prog.Executor().NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFrame(inputs, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunFrame(inputs, affine.Box{{Lo: 0, Hi: 5}}); !errors.Is(err, ErrROI) {
		t.Fatalf("rank-1 ROI: err = %v, want ErrROI", err)
	}
	s.Close()
	if _, err := s.RunFrame(inputs, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("RunFrame after Close: err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	s.Close()
}

// blendPipeline is the exponential-motion-blur shape from the paper's
// temporal examples: out = 0.7·state + 0.3·I, with state fed back from the
// previous frame's out. Point-wise, so a dirty rectangle stays a dirty
// rectangle across frames instead of growing by a stencil halo.
func blendPipeline(t testing.TB) (*pipeline.Graph, map[string]int64, map[string]*Buffer) {
	t.Helper()
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	S := b.Image("S", expr.Float, R.Affine(), C.Affine())
	I := b.Image("I", expr.Float, R.Affine(), C.Affine())
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(0), C.Affine().AddConst(-1)),
	}
	blur := b.Func("blur", expr.Float, []*dsl.Variable{x, y}, dom)
	blur.Define(dsl.Case{E: dsl.Add(dsl.Mul(0.7, S.At(x, y)), dsl.Mul(0.3, I.At(x, y)))})
	sharp := b.Func("sharp", expr.Float, []*dsl.Variable{x, y}, dom)
	sharp.Define(dsl.Case{E: dsl.Sub(dsl.Mul(2.0, blur.At(x, y)), S.At(x, y))})
	// edge depends on I alone — no feedback state — so its dirty region on
	// ROI frames stays the rectangle and its clean tiles are skippable even
	// while the blur/sharp chain's decaying state keeps that chain fully
	// dirty.
	edge := b.Func("edge", expr.Float, []*dsl.Variable{x, y}, dom)
	edge.Define(dsl.Case{E: dsl.Mul(0.5, I.At(x, y))})
	g, err := pipeline.Build(b, "sharp", "blur", "edge")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 128, "C": 160}
	seed, err := buffer.NewForDomain(S.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(seed, 3)
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 11)
	return g, params, map[string]*Buffer{"S": seed, "I": in}
}

func compileBlend(t testing.TB, opts ExecOptions) (*Program, map[string]*Buffer) {
	t.Helper()
	g, params, inputs := blendPipeline(t)
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: []int64{32, 32}, MinTileExtent: 8})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prog, inputs
}

// TestStreamFeedback: a stream with a Feedback binding must reproduce,
// frame for frame, the manual chain that passes each frame's output back
// as the next frame's input — including on dirty-rectangle frames, where
// the feedback image's dirty region is last frame's change.
func TestStreamFeedback(t *testing.T) {
	prog, inputs := compileBlend(t, ExecOptions{Fast: true, Threads: 4, Metrics: true})
	defer prog.Close()
	e := prog.Executor()
	s, err := e.NewStream(StreamOptions{Feedback: map[string]string{"S": "blur"}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	roi := affine.Box{{Lo: 40, Hi: 47}, {Lo: 96, Hi: 111}}
	state := inputs["S"]
	in := cloneBuf(inputs["I"])
	const frames = 5
	var prev map[string]*Buffer
	for k := 0; k < frames; k++ {
		var frameROI affine.Box
		if k > 0 {
			bumpRegion(in, roi, float32(k)*0.25)
			frameROI = roi
		}
		gets := arenaGets(e)
		out, err := s.RunFrame(map[string]*Buffer{"S": state, "I": in}, frameROI)
		if err != nil {
			t.Fatalf("frame %d: %v", k, err)
		}
		if k > 0 {
			// blur feeds S: it alone takes a buffer, since the frame reads
			// the previous one.
			if n := arenaGets(e) - gets; n != 1 {
				t.Fatalf("frame %d took %d arena buffers, want 1", k, n)
			}
			sameBuffers(t, prev, out, map[string]bool{"blur": true})
		}
		prev = maps.Clone(out)
		want, err := e.Run(map[string]*Buffer{"S": state, "I": in})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"blur", "sharp", "edge"} {
			if eq, msg := out[name].Equal(want[name], 0); !eq {
				t.Fatalf("frame %d: %s differs from manual chain: %s", k, name, msg)
			}
		}
		// Advance the manual chain: next frame's state is this frame's blur.
		if state != inputs["S"] {
			e.Recycle(map[string]*Buffer{"blur": state})
		}
		state = cloneBuf(want["blur"])
		e.Recycle(want)
	}
	st := s.Stats()
	if st.Frames != frames {
		t.Fatalf("Stats.Frames = %d, want %d", st.Frames, frames)
	}
	// The feedback chain's state decays every frame, so its dirty region is
	// legitimately global; the edge chain depends only on I, so its tiles
	// outside the ROI must have been served from the previous frame.
	if st.TilesSkipped == 0 {
		t.Fatal("ROI frames skipped no tiles of the feedback-independent chain")
	}
}

// arenaGets counts the buffers e's arena has handed out.
func arenaGets(e *Executor) int64 {
	a := e.Snapshot().Arena
	return a.Hits + a.Misses
}

// TestStreamFeedbackValidation: feedback bindings to unknown images or
// stages, non-live-out stages, or mismatched domains fail up front.
func TestStreamFeedbackValidation(t *testing.T) {
	prog, _ := compileBlend(t, ExecOptions{Fast: true, Threads: 1})
	defer prog.Close()
	e := prog.Executor()
	cases := []struct {
		name string
		fb   map[string]string
		want error
	}{
		{"unknown image", map[string]string{"nope": "blur"}, ErrUnknownStage},
		{"unknown stage", map[string]string{"S": "nope"}, ErrUnknownStage},
	}
	for _, tc := range cases {
		if _, err := e.NewStream(StreamOptions{Feedback: tc.fb}); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestFleetStreamCloseRace: Close and Recycle racing an in-flight frame
// stream on a private fleet. Frames begun before Close complete with
// correct values; frames after fail with ErrClosed; nothing panics or
// deadlocks. Runs under -race as part of `make fleet-race` and
// `make stream-race`.
func TestFleetStreamCloseRace(t *testing.T) {
	f := newFleet(4)
	prog, inputs := compileBlend(t, ExecOptions{Fast: true, Threads: 4, fleet: f})
	e := prog.Executor()

	roi := affine.Box{{Lo: 8, Hi: 23}, {Lo: 8, Hi: 23}}
	var started sync.WaitGroup
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 3; g++ {
		started.Add(1)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := e.NewStream(StreamOptions{Feedback: map[string]string{"S": "blur"}})
			if err != nil {
				if !errors.Is(err, ErrClosed) {
					errs <- err
				}
				started.Done()
				return
			}
			defer s.Close()
			in := cloneBuf(inputs["I"])
			for k := 0; k < 8; k++ {
				if k == 1 {
					started.Done()
				}
				var frameROI affine.Box
				if k > 0 {
					bumpRegion(in, roi, 0.5)
					frameROI = roi
				}
				out, err := s.RunFrame(map[string]*Buffer{"S": inputs["S"], "I": in}, frameROI)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						errs <- fmt.Errorf("stream %d frame %d: %v", g, k, err)
					}
					if k == 0 {
						started.Done()
					}
					return
				}
				if out["sharp"] == nil || out["blur"] == nil {
					errs <- fmt.Errorf("stream %d frame %d: missing outputs", g, k)
					return
				}
				// Recycle racing the stream: hand unrelated buffers back.
				e.Recycle(map[string]*Buffer{})
			}
		}(g)
	}
	started.Wait()
	prog.Close() // must drain in-flight frames, not race their buffers
	if _, err := e.Run(inputs); !errors.Is(err, ErrClosed) {
		t.Fatalf("Run after Close: err = %v, want ErrClosed", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStreamRunFrames: the RunFrames convenience loop delivers per-frame
// outputs in order and stops on callback error.
func TestStreamRunFrames(t *testing.T) {
	prog, inputs := compileBlend(t, ExecOptions{Fast: true, Threads: 2})
	defer prog.Close()
	e := prog.Executor()
	frames := []Frame{
		{Inputs: inputs},
		{Inputs: inputs, ROI: affine.Box{{Lo: 0, Hi: 7}, {Lo: 0, Hi: 7}}},
		{Inputs: inputs},
	}
	seen := 0
	err := e.RunFrames(frames, StreamOptions{Feedback: map[string]string{"S": "blur"}}, func(i int, out map[string]*Buffer) error {
		if i != seen {
			return fmt.Errorf("frame %d delivered out of order (want %d)", i, seen)
		}
		seen++
		if out["sharp"] == nil {
			return fmt.Errorf("frame %d: no sharp output", i)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(frames) {
		t.Fatalf("saw %d frames, want %d", seen, len(frames))
	}
	stop := errors.New("stop")
	err = e.RunFrames(frames, StreamOptions{Feedback: map[string]string{"S": "blur"}}, func(i int, out map[string]*Buffer) error {
		if i == 1 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("callback error not propagated: %v", err)
	}
}

// gatherPipeline reads f through a data-dependent column index: out(x, y)
// = f(x, y + K(x, y)·10⁶) + I(x, y), so a non-zero K sends a read far
// outside f, which Debug reports as an error mid-run.
func gatherPipeline(t testing.TB) (*Program, map[string]*Buffer) {
	t.Helper()
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine(), C.Affine())
	K := b.Image("K", expr.Float, R.Affine(), C.Affine())
	x, y := b.Var("x"), b.Var("y")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(0), C.Affine().AddConst(-1)),
	}
	f := b.Func("f", expr.Float, []*dsl.Variable{x, y}, dom)
	f.Define(dsl.Case{E: dsl.Mul(0.5, I.At(x, y))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, dom)
	col := dsl.Cast(expr.Int, dsl.Add(y, dsl.Mul(K.At(x, y), 1e6)))
	out.Define(dsl.Case{E: dsl.Add(f.At(x, col), I.At(x, y))})
	g, err := pipeline.Build(b, "out")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 64, "C": 96}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: []int64{16, 32}, MinTileExtent: 8})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, ExecOptions{Debug: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*Buffer{}
	for _, name := range []string{"I", "K"} {
		if inputs[name], err = buffer.NewForDomain(g.Images[name].Domain(), params); err != nil {
			t.Fatal(err)
		}
	}
	FillPattern(inputs["I"], 3)
	return prog, inputs
}

// TestStreamFailedFrame: a frame that fails mid-run leaves the retained
// buffers half-overwritten, so the next frame must not trust them: an ROI
// frame after the failure must equal a whole-frame run bit for bit.
func TestStreamFailedFrame(t *testing.T) {
	prog, inputs := gatherPipeline(t)
	defer prog.Close()
	e := prog.Executor()
	s, err := e.NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.RunFrame(inputs, nil); err != nil {
		t.Fatal(err)
	}
	// Frame 1 changes I everywhere and points one gather off f: it fails
	// after f has been overwritten, with out part done.
	FillPattern(inputs["I"], 5)
	inputs["K"].Set(1, 2, 3)
	if _, err := s.RunFrame(inputs, nil); err == nil {
		t.Fatal("frame 1: want the out-of-region gather to fail")
	}
	// Frame 2 differs from frame 1 only at the gather it mends.
	inputs["K"].Set(0, 2, 3)
	roi := affine.Box{{Lo: 0, Hi: 7}, {Lo: 0, Hi: 7}}
	got, err := s.RunFrame(inputs, roi)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, wb := range want {
		if eq, msg := got[name].Equal(wb, 0); !eq {
			t.Fatalf("ROI frame after a failed frame: %s differs from a whole-frame run: %s", name, msg)
		}
	}
}

// TestStreamPredicateFlip: a stage whose case predicate reads the input
// stores its own value where the predicate fails, which a fresh buffer
// holds as zero. Overwritten in place, the region a frame recomputes must
// read as zero too: after the predicate flips inside the ROI, the frame
// must match a whole-frame run on fresh buffers, and so must a whole frame
// after it. hi is the anchor of a tiled group; run, a running sum over the
// points above the threshold, is a self-referencing stage, which its own
// runner recomputes whole.
func TestStreamPredicateFlip(t *testing.T) {
	b := dsl.NewBuilder()
	R, C := b.Param("R"), b.Param("C")
	I := b.Image("I", expr.Float, R.Affine(), C.Affine())
	x, y := b.Var("x"), b.Var("y")
	inner := []dsl.Interval{
		dsl.Span(affine.Const(1), R.Affine().AddConst(-2)),
		dsl.Span(affine.Const(1), C.Affine().AddConst(-2)),
	}
	box3 := [][]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	sm := b.Func("sm", expr.Float, []*dsl.Variable{x, y}, inner)
	sm.Define(dsl.Case{E: dsl.Stencil(I, 1.0/9, box3, [2]any{x, y})})
	// Only where the smoothed input is high: a residual predicate.
	hi := b.Func("hi", expr.Float, []*dsl.Variable{x, y}, inner)
	hi.Define(dsl.Case{Cond: dsl.Cond(sm.At(x, y), ">", 0.5), E: dsl.Mul(2.0, sm.At(x, y))})
	run := b.Func("run", expr.Float, []*dsl.Variable{x, y}, inner)
	above := dsl.Cond(I.At(x, y), ">", 0.5)
	run.Define(
		dsl.Case{Cond: dsl.And(dsl.Cond(y, "==", 1), above), E: I.At(x, y)},
		dsl.Case{Cond: dsl.And(dsl.Cond(y, ">", 1), above), E: dsl.Add(run.At(x, dsl.Sub(y, 1)), I.At(x, y))},
	)
	g, err := pipeline.Build(b, "hi", "run")
	if err != nil {
		t.Fatal(err)
	}
	params := map[string]int64{"R": 64, "C": 96}
	gr, err := schedule.BuildGroups(g, params, schedule.Options{TileSizes: []int64{16, 32}, MinTileExtent: 8})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(gr, params, ExecOptions{Fast: true, Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	for _, name := range []string{"hi", "run"} {
		if !prog.stages[name].predicated() {
			t.Fatalf("%s has no predicated piece: the test would not exercise one", name)
		}
	}
	if !prog.stages["run"].selfRef {
		t.Fatal("run is not self-referencing")
	}
	in, err := buffer.NewForDomain(I.Domain(), params)
	if err != nil {
		t.Fatal(err)
	}
	FillPattern(in, 7)
	e := prog.Executor()
	s, err := e.NewStream(StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// flip mirrors the input about the threshold inside region, so the
	// predicate turns over there.
	flip := func(region affine.Box) {
		for x := region[0].Lo; x <= region[0].Hi; x++ {
			for y := region[1].Lo; y <= region[1].Hi; y++ {
				in.Set(1-in.At(x, y), x, y)
			}
		}
	}
	roi := affine.Box{{Lo: 20, Hi: 43}, {Lo: 30, Hi: 65}}
	for k, frameROI := range []affine.Box{nil, roi, roi, nil} {
		if k > 0 {
			region := frameROI
			if region == nil {
				region = in.Box
			}
			flip(region)
		}
		got, err := s.RunFrame(map[string]*Buffer{"I": in}, frameROI)
		if err != nil {
			t.Fatal(err)
		}
		want, err := e.Run(map[string]*Buffer{"I": in})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"hi", "run"} {
			if eq, msg := got[name].Equal(want[name], 0); !eq {
				t.Fatalf("frame %d: %s differs from a whole-frame run on fresh buffers: %s", k, name, msg)
			}
		}
		e.Recycle(want)
	}
}
