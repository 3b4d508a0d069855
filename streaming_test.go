package polymage_test

import (
	"hash/fnv"
	"math"
	"testing"

	polymage "repro"
	"repro/internal/engine"
)

// frameChecksum fingerprints a buffer's exact bit contents.
func frameChecksum(b *polymage.Buffer) uint64 {
	h := fnv.New64a()
	var raw [4]byte
	for _, v := range b.Data {
		bits := math.Float32bits(v)
		raw[0], raw[1], raw[2], raw[3] = byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24)
		h.Write(raw[:])
	}
	return h.Sum64()
}

func cloneBuffer(b *polymage.Buffer) *polymage.Buffer {
	c := polymage.NewBuffer(b.Box)
	copy(c.Data, b.Data)
	return c
}

// buildHeatStep builds a single relaxation step of the heat example's
// diffusion (examples/heat iterates time inside the pipeline; here one
// frame is one step, closed into a loop by stream feedback): interior
// points move toward their neighborhood mean, the boundary is insulated.
// The step's domain equals the state image's, as feedback requires.
func buildHeatStep(t *testing.T, params map[string]int64) *polymage.Program {
	t.Helper()
	b := polymage.NewBuilder()
	N := b.Param("N")
	state := b.Image("state", polymage.Float, N.Affine(), N.Affine())
	x, y := b.Var("x"), b.Var("y")
	vars := []*polymage.Variable{x, y}
	dom := []polymage.Interval{
		polymage.Span(polymage.ConstExpr(0), N.Affine().AddConst(-1)),
		polymage.Span(polymage.ConstExpr(0), N.Affine().AddConst(-1)),
	}
	inner := polymage.InBox(vars, []any{1, 1}, []any{polymage.Sub(N, 2), polymage.Sub(N, 2)})
	at := func(dx, dy int) polymage.Expr {
		return state.At(polymage.Add(x, dx), polymage.Add(y, dy))
	}
	lap := polymage.Sub(
		polymage.Add(polymage.Add(at(-1, 0), at(1, 0)), polymage.Add(at(0, -1), at(0, 1))),
		polymage.Mul(4, at(0, 0)))
	step := b.Func("step", polymage.Float, vars, dom)
	step.Define(
		polymage.Case{Cond: inner, E: polymage.Add(at(0, 0), polymage.Mul(0.2, lap))},
		polymage.Case{E: at(0, 0)},
	)
	pl, err := polymage.Compile(b, []string{"step"}, polymage.Options{Estimates: params})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pl.Bind(params, polymage.ExecOptions{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestStreamingHeatOracle is the feedback golden oracle: RunFrames with
// the state image fed back from the previous frame's output must match,
// bit for bit and frame by frame, the manual loop that runs a fresh
// whole-frame execution per step on an independent program — and the
// whole sequence's checksums must replay deterministically. The manual
// loop's first step is held to the reference interpreter, so the two loops
// cannot agree on a step that computes the wrong thing (the interior case
// comes first and wins over the insulated default).
func TestStreamingHeatOracle(t *testing.T) {
	const frames = 6
	params := map[string]int64{"N": 96}
	prog := buildHeatStep(t, params)
	defer prog.Close()
	oracle := buildHeatStep(t, params)
	defer oracle.Close()

	seedState := func() *polymage.Buffer {
		in := polymage.NewBuffer(polymage.Box{{Lo: 0, Hi: 95}, {Lo: 0, Hi: 95}})
		for xx := int64(40); xx < 56; xx++ {
			for yy := int64(40); yy < 56; yy++ {
				in.Set(1, xx, yy)
			}
		}
		return in
	}

	// The manual loop: fresh execution per frame, output fed forward by
	// hand.
	want := make([]uint64, frames)
	cur := seedState()
	for f := 0; f < frames; f++ {
		out, err := oracle.Run(map[string]*polymage.Buffer{"state": cur})
		if err != nil {
			t.Fatal(err)
		}
		if f == 0 {
			ref, err := engine.Reference(oracle.Graph, params, map[string]*polymage.Buffer{"state": cur})
			if err != nil {
				t.Fatal(err)
			}
			if eq, msg := out["step"].Equal(ref["step"], 1e-6); !eq {
				t.Fatalf("frame 0 against the reference interpreter: %s", msg)
			}
		}
		want[f] = frameChecksum(out["step"])
		cur = cloneBuffer(out["step"])
	}

	// The streamed loop: feedback closes state <- step across frames;
	// frame 0 supplies the seed.
	runStream := func() []uint64 {
		sums := make([]uint64, 0, frames)
		seq := make([]polymage.Frame, frames)
		inputs := map[string]*polymage.Buffer{"state": seedState()}
		for f := range seq {
			seq[f] = polymage.Frame{Inputs: inputs}
		}
		err := prog.Executor().RunFrames(seq, polymage.StreamOptions{Feedback: map[string]string{"state": "step"}},
			func(f int, out map[string]*polymage.Buffer) error {
				sums = append(sums, frameChecksum(out["step"]))
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return sums
	}

	got := runStream()
	for f := range want {
		if got[f] != want[f] {
			t.Fatalf("frame %d: stream checksum %016x, fresh per-frame execution %016x", f, got[f], want[f])
		}
	}
	// Checksum determinism: an independent stream over the same sequence.
	for f, sum := range runStream() {
		if sum != want[f] {
			t.Fatalf("frame %d: replayed stream diverged: %016x vs %016x", f, sum, want[f])
		}
	}
}

// buildBlend builds a two-input blend + sharpen pair (a small cut of the
// blend example): blend is point-wise over the full images, sharp is a
// 3x3 stencil over the interior, both live-outs.
func buildBlend(t *testing.T, params map[string]int64) *polymage.Program {
	t.Helper()
	b := polymage.NewBuilder()
	N := b.Param("N")
	A := b.Image("A", polymage.Float, N.Affine(), N.Affine())
	B := b.Image("B", polymage.Float, N.Affine(), N.Affine())
	x, y := b.Var("x"), b.Var("y")
	vars := []*polymage.Variable{x, y}
	full := []polymage.Interval{
		polymage.Span(polymage.ConstExpr(0), N.Affine().AddConst(-1)),
		polymage.Span(polymage.ConstExpr(0), N.Affine().AddConst(-1)),
	}
	interior := []polymage.Interval{
		polymage.Span(polymage.ConstExpr(1), N.Affine().AddConst(-2)),
		polymage.Span(polymage.ConstExpr(1), N.Affine().AddConst(-2)),
	}
	blend := b.Func("blend", polymage.Float, vars, full)
	blend.Define(polymage.Case{E: polymage.Add(polymage.Mul(0.6, A.At(x, y)), polymage.Mul(0.4, B.At(x, y)))})
	sharp := b.Func("sharp", polymage.Float, vars, interior)
	box := polymage.Stencil(blend, 1.0/9, [][]float64{
		{1, 1, 1}, {1, 1, 1}, {1, 1, 1},
	}, [2]any{x, y})
	sharp.Define(polymage.Case{E: polymage.Sub(polymage.Mul(2, blend.At(x, y)), box)})
	pl, err := polymage.Compile(b, []string{"sharp", "blend"}, polymage.Options{
		Estimates: params,
		Schedule:  polymage.ScheduleOptions{TileSizes: []int64{16, 16}, MinSize: 1, MinTileExtent: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pl.Bind(params, polymage.ExecOptions{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestStreamingBlendDirtyRect is the dirty-rectangle golden oracle on the
// blend pair: frames confine their input change to a small ROI, the
// stream recomputes only the tiles that change reaches (Stats must show
// skips), and every frame is bit-identical to a fresh whole-frame
// execution of the same inputs on an independent program.
func TestStreamingBlendDirtyRect(t *testing.T) {
	const frames = 4
	params := map[string]int64{"N": 128}
	prog := buildBlend(t, params)
	defer prog.Close()
	oracle := buildBlend(t, params)
	defer oracle.Close()

	box := polymage.Box{{Lo: 0, Hi: 127}, {Lo: 0, Hi: 127}}
	a, bb := polymage.NewBuffer(box), polymage.NewBuffer(box)
	polymage.FillPattern(a, 1)
	polymage.FillPattern(bb, 2)
	inputs := map[string]*polymage.Buffer{"A": a, "B": bb}
	roi := polymage.Box{{Lo: 48, Hi: 63}, {Lo: 80, Hi: 95}}

	st, err := prog.Executor().NewStream(polymage.StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for f := 0; f < frames; f++ {
		var frameROI polymage.Box
		if f > 0 {
			// The frame's change: rewrite the ROI region of A.
			for xx := roi[0].Lo; xx <= roi[0].Hi; xx++ {
				for yy := roi[1].Lo; yy <= roi[1].Hi; yy++ {
					a.Set(float32(f)*0.25+float32(xx-yy)*0.01, xx, yy)
				}
			}
			frameROI = roi
		}
		out, err := st.RunFrame(inputs, frameROI)
		if err != nil {
			t.Fatalf("frame %d: %v", f, err)
		}
		ref, err := oracle.Run(map[string]*polymage.Buffer{"A": cloneBuffer(a), "B": cloneBuffer(bb)})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"sharp", "blend"} {
			if ok, detail := out[name].Equal(ref[name], 0); !ok {
				t.Fatalf("frame %d output %q diverges from whole-frame execution: %s", f, name, detail)
			}
		}
	}

	stats := st.Stats()
	if stats.Frames != frames {
		t.Fatalf("stats frames = %d, want %d", stats.Frames, frames)
	}
	if stats.TilesSkipped == 0 || stats.TilesExecuted == 0 {
		t.Fatalf("dirty-rectangle frames: skipped=%d executed=%d, want both > 0", stats.TilesSkipped, stats.TilesExecuted)
	}
	if stats.TilesSkipped <= stats.TilesExecuted {
		t.Errorf("a 16x16 ROI on a 128x128 frame should skip more tiles than it recomputes: skipped=%d executed=%d",
			stats.TilesSkipped, stats.TilesExecuted)
	}
}
