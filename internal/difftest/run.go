package difftest

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/affine"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/inline"
	"repro/internal/schedule"
)

// Knob is one point of the schedule/execution configuration sweep: the
// compile-time transformations (tiling, grouping, inlining) and run-time
// execution options (fast kernels, threads, buffer pooling) the optimized
// side is exercised under.
type Knob struct {
	Name string
	// Tiles feeds schedule.Options.TileSizes.
	Tiles []int64
	// DisableFusion keeps every stage in its own group.
	DisableFusion bool
	// DisableInline turns the point-wise inlining pass off.
	DisableInline bool
	// Fast dispatches pieces to the generated kernels the binary links
	// (the test binary links gencorpus: kernels for the piece shapes of
	// corpus seeds 1..40, which bind under any schedule), so the sweep diffs
	// the compiled loop nests against the reference under every tiling,
	// streaming and concurrency axis. Without it every piece runs on the
	// row VM.
	Fast bool
	// Threads is the worker count (1 = fully sequential).
	Threads int
	// ReuseBuffers pools intermediate full buffers across groups.
	ReuseBuffers bool
	// Tiling selects the strategy for fused groups (overlapped, the
	// default, or the Figure 5 alternatives).
	Tiling engine.TilingStrategy
	// Concurrent runs the compiled program from this many goroutines at
	// once through the shared fleet scheduler, ULP-comparing every
	// result against the sequential reference — the differential gate for
	// per-run state isolation (slot tables, liveness maps, scratchpads).
	// 0 or 1 means the plain sequential two-pass check.
	Concurrent int
	// Frames > 1 streams the program over a frame sequence through a frame
	// stream (buffers, scratchpads and arena state retained frame to
	// frame), mutating the inputs between frames and ULP-comparing every
	// frame against an independent whole-graph reference execution on that
	// frame's inputs. 0 or 1 means a single-shot run.
	Frames int
	// ROI confines the between-frame input mutation to a centered dirty
	// rectangle and passes that rectangle to the stream, so frames after
	// the first exercise the dirty-tile decision and the clean-tile copies
	// from the previous frame's retained buffers. Requires Frames > 1.
	ROI bool
	// NarrowTypes enables the bitwidth-inference pass, so stages with
	// provably bounded integral intervals store as uint8/uint16/int32 and
	// run in int64 generated kernels / on the integer row VM. On float
	// pipelines the pass must be a no-op (the knob differentially checks
	// that); on Integer specs it is the narrow side of the exactness
	// oracle, diffed bit-for-bit against the float64 reference.
	NarrowTypes bool
	// Auto compiles with the cost-model auto-scheduler
	// (schedule.Options.Auto): the beam-searched grouping and tile sizes
	// are ULP-diffed against the reference — the searched schedule must
	// change only performance, never values.
	Auto bool
	// Serve compiles and binds with core.ServeOptions, the configuration
	// polymage-serve runs a request in: the auto-scheduler at its default
	// options, Fast with generated kernels, pooled buffers, every thread,
	// metrics on and no Debug. Beside it only Concurrent, Frames and ROI
	// apply.
	Serve bool
}

func (k Knob) String() string {
	s := fmt.Sprintf("%s{tiles=%v fusion=%v inline=%v fast=%v threads=%d pool=%v tiling=%d conc=%d",
		k.Name, k.Tiles, !k.DisableFusion, !k.DisableInline, k.Fast, k.Threads, k.ReuseBuffers, k.Tiling, k.Concurrent)
	if k.Frames > 1 {
		s += fmt.Sprintf(" frames=%d roi=%v", k.Frames, k.ROI)
	}
	if k.NarrowTypes {
		s += " narrow=true"
	}
	if k.Auto {
		s += " auto=true"
	}
	if k.Serve {
		s += " serve=true"
	}
	return s + "}"
}

// options is how the knob compiles (estimates set) and binds a pipeline.
func (k Knob) options(estimates map[string]int64) (core.Options, engine.ExecOptions) {
	if k.Serve {
		co, eo := core.ServeOptions(nil, true, k.Threads, true, true)
		co.Estimates = estimates
		return co, eo
	}
	return core.Options{Estimates: estimates, Schedule: k.schedOptions(), Inline: k.inlineOptions(), AllowUnproven: true},
		k.engineOptions()
}

// schedOptions maps the knob to scheduling options scaled for the small
// fuzz extents (tiny MinSize so grouping actually triggers, the high
// overlap threshold the original fuzzers used).
func (k Knob) schedOptions() schedule.Options {
	so := schedule.Options{
		TileSizes:        k.Tiles,
		MinTileExtent:    4,
		MinSize:          8,
		OverlapThreshold: 0.95,
		DisableFusion:    k.DisableFusion,
		Auto:             k.Auto,
	}
	if k.Auto {
		// Small tile candidates matched to the fuzzers' tiny extents, and
		// a tight state budget so the sweep stays fast per seed.
		so.AutoOpts = &schedule.AutoOptions{
			TileCandidates: [][]int64{{4, 4}, {8, 8}, {16, 16}, {8, 16}},
			BeamWidth:      3,
			MaxStates:      128,
		}
	}
	return so
}

func (k Knob) inlineOptions() inline.Options {
	if k.DisableInline {
		return inline.Options{Disabled: true}
	}
	return inline.DefaultOptions()
}

func (k Knob) engineOptions() engine.ExecOptions {
	return engine.ExecOptions{Fast: k.Fast, Threads: k.Threads, Debug: true,
		ReuseBuffers: k.ReuseBuffers, Tiling: k.Tiling,
		NarrowTypes: k.NarrowTypes}
}

// DefaultKnobs is the standard sweep: 19 combinations covering every axis
// (tile sizes incl. degenerate and asymmetric, fusion on/off, inlining
// on/off, generated kernels on/off, 1 vs N threads, pooling on/off, the
// alternative tiling strategies of Figure 5, concurrent runs, frame
// streams, narrow types and the auto-scheduler), then the configuration
// polymage-serve runs a request in (ServeKnobs). The Fast knobs run
// generated kernels where the binary links one for a piece and the row
// bytecode VM elsewhere; the others run the VM alone, so both are
// differentially tested against the reference on every seed.
func DefaultKnobs() []Knob {
	return append([]Knob{
		{Name: "vm-seq", Tiles: []int64{8, 16}, Threads: 1},
		{Name: "fast-par-pool", Tiles: []int64{16}, Fast: true, Threads: 4, ReuseBuffers: true},
		{Name: "noinline-par", Tiles: []int64{32, 8}, DisableInline: true, Threads: 2},
		{Name: "nofuse-fast-par", Tiles: []int64{16, 16}, DisableFusion: true, Fast: true, Threads: 4},
		{Name: "nofuse-noinline-pool", Tiles: []int64{8}, DisableFusion: true, DisableInline: true, Threads: 1, ReuseBuffers: true},
		{Name: "asym-tile-fast-pool", Tiles: []int64{8, 32}, Fast: true, Threads: 2, ReuseBuffers: true},
		{Name: "tiny-tile-par", Tiles: []int64{4, 4}, Threads: 4},
		{Name: "huge-tile-fast", Tiles: []int64{512, 512}, Fast: true, Threads: 2},
		{Name: "parallelogram-fast", Tiles: []int64{16, 16}, Fast: true, Threads: 2, Tiling: engine.ParallelogramTiling},
		{Name: "split-fast", Tiles: []int64{16, 16}, Fast: true, Threads: 2, Tiling: engine.SplitTiling},
		{Name: "fleet-concurrent", Tiles: []int64{16, 16}, Fast: true, Threads: 4, ReuseBuffers: true, Concurrent: 4},
		{Name: "frames-stream", Tiles: []int64{16, 16}, Fast: true, Threads: 4, Frames: 3},
		{Name: "roi-dirty", Tiles: []int64{8, 8}, Fast: true, Threads: 2, Frames: 3, ROI: true},
		{Name: "narrow-fast-par", Tiles: []int64{16, 16}, Fast: true, Threads: 4, NarrowTypes: true},
	}, append(GenKnobs(), ServeKnobs()...)...)
}

// ServeKnobs run the production combination, built by the function the
// service builds its options with (Knob.Serve): single, from four
// goroutines at once on the shared fleet, and as a 3-frame stream with a
// dirty rectangle.
func ServeKnobs() []Knob {
	return []Knob{
		{Name: "serve-default", Serve: true},
		{Name: "serve-default-concurrent", Serve: true, Concurrent: 4},
		{Name: "serve-default-roi", Serve: true, Frames: 3, ROI: true},
	}
}

// NarrowKnobs is the sweep for the integer corpus: the narrow layout
// across the row-VM/parallel/pooled/unfused axes, one float32-layout point
// and the auto-scheduled narrow-gen point, all of which must agree
// bit-for-bit with the float64 reference on an Integer spec (Diff pins the
// zero-tolerance oracle for those). The Fast knobs run the gencorpus int64
// kernels wherever a piece has one; narrow-vm-seq runs none, so the
// integer VM they displace stays in the sweep.
func NarrowKnobs() []Knob {
	return []Knob{
		{Name: "narrow-vm-seq", Tiles: []int64{8, 16}, Threads: 1, NarrowTypes: true},
		{Name: "narrow-fast-par-pool", Tiles: []int64{16}, Fast: true, Threads: 4, ReuseBuffers: true, NarrowTypes: true},
		{Name: "narrow-nofuse", Tiles: []int64{8, 8}, DisableFusion: true, Fast: true, Threads: 2, NarrowTypes: true},
		{Name: "wide-fast-par", Tiles: []int64{16, 16}, Fast: true, Threads: 4},
		NarrowGenKnobs()[1],
	}
}

// QuickKnobs is a 4-point subset for the native fuzzing loop, where
// per-input cost matters more than axis coverage.
func QuickKnobs() []Knob {
	var quick []Knob
	for _, k := range DefaultKnobs() {
		switch k.Name {
		case "vm-seq", "fast-par-pool", "nofuse-noinline-pool", "tiny-tile-par":
			quick = append(quick, k)
		}
	}
	return quick
}

// RunOptions configures a differential run.
type RunOptions struct {
	// Knobs to sweep; nil means DefaultKnobs().
	Knobs []Knob
	// Atol is the absolute tolerance; values within it always compare
	// equal (guards denormal noise around zero). Default 1e-5.
	Atol float64
	// MaxULP is the unit-in-the-last-place budget for values outside
	// Atol. Default 32 (the fast float32 kernels re-associate sums).
	MaxULP uint32
	// Perturb builds the optimized side from the perturbed variant of the
	// spec (stages with StageSpec.Perturb scale their definition), the
	// fault-injection hook of the mutation smoke tests.
	Perturb bool
}

func (o RunOptions) withDefaults() RunOptions {
	if o.Knobs == nil {
		o.Knobs = DefaultKnobs()
	}
	if o.Atol == 0 {
		o.Atol = 1e-5
	}
	if o.MaxULP == 0 {
		o.MaxULP = 32
	}
	return o
}

// Mismatch reports one differential failure: the knob under which the
// optimized execution diverged from the reference interpreter (or errored)
// and a human-readable detail.
type Mismatch struct {
	Spec   PipelineSpec
	Knob   Knob
	Output string
	Detail string
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("difftest: %s under %s: output %q: %s", m.Spec.ShortString(), m.Knob, m.Output, m.Detail)
}

// Diff executes the spec through the reference interpreter once and
// through the optimized compiler+engine under every knob, comparing all
// live-outs. It returns the first Mismatch found (nil if all knobs agree)
// or an error for infrastructure failures — a broken generator invariant
// or a reference-side failure, which indicate a bug in difftest itself
// rather than in the optimizer.
func Diff(sp PipelineSpec, opts RunOptions) (*Mismatch, error) {
	opts = opts.withDefaults()
	if sp.Integer {
		// Integer specs are provably exact in every tier (all intervals
		// within ±2^24): the ULP budget would mask real divergence, so the
		// oracle demands bit equality.
		opts.Atol, opts.MaxULP = 0, 0
	}
	refB, err := sp.Build(false)
	if err != nil {
		return nil, err
	}
	// The generator's central invariant: every access is provably in
	// bounds. Check it once on the reference build; the optimized builds
	// are re-checked inside core.Compile.
	res, err := bounds.Check(refB.Graph, refB.Params)
	if err != nil {
		return nil, err
	}
	if err := res.Err(); err != nil {
		return nil, fmt.Errorf("difftest: generator produced out-of-bounds accesses for %s: %w", sp.ShortString(), err)
	}
	ref, err := engine.Reference(refB.Graph, refB.Params, refB.Inputs)
	if err != nil {
		return nil, fmt.Errorf("difftest: reference execution of %s: %w", sp.ShortString(), err)
	}
	for _, k := range opts.Knobs {
		if m := diffOne(sp, k, opts, refB, ref); m != nil {
			return m, nil
		}
	}
	return nil, nil
}

// diffOne compiles and runs the spec under one knob and compares against
// the precomputed reference. Compile or run errors on the optimized side
// are findings (they shrink like value mismatches), not infrastructure
// errors.
func diffOne(sp PipelineSpec, k Knob, opts RunOptions, refB *built, ref map[string]*engine.Buffer) *Mismatch {
	fail := func(output, detail string) *Mismatch {
		return &Mismatch{Spec: sp, Knob: k, Output: output, Detail: detail}
	}
	optB, err := sp.Build(opts.Perturb)
	if err != nil {
		return fail("", fmt.Sprintf("build: %v", err))
	}
	co, eo := k.options(optB.Params)
	pl, err := core.Compile(optB.Graph.Builder, optB.LiveOuts, co)
	if err != nil {
		return fail("", fmt.Sprintf("compile: %v", err))
	}
	prog, err := pl.Bind(optB.Params, eo)
	if err != nil {
		return fail("", fmt.Sprintf("bind: %v", err))
	}
	defer prog.Close()
	ins := inputsFor(k, refB)
	if k.Frames > 1 {
		return diffFrames(sp, k, opts, prog, refB, fail)
	}
	if k.Concurrent > 1 {
		return diffConcurrent(k, opts, prog, refB, ref, ins, fail)
	}
	// Run twice through the persistent executor, recycling in between:
	// the second run must see no stale scratchpad/arena state.
	for pass := 0; pass < 2; pass++ {
		out, err := prog.Run(ins)
		if err != nil {
			return fail("", fmt.Sprintf("run %d: %v", pass, err))
		}
		for _, lo := range refB.LiveOuts {
			got, ok := out[lo]
			if !ok || got == nil {
				return fail(lo, fmt.Sprintf("run %d: output missing", pass))
			}
			if detail := Compare(got, ref[lo], opts.Atol, opts.MaxULP); detail != "" {
				return fail(lo, fmt.Sprintf("run %d: %s", pass, detail))
			}
		}
		prog.Executor().Recycle(out)
	}
	return nil
}

// inputsFor adapts the spec's native inputs to the knob's layout: loads
// specialize on the element type at bind time, so a program compiled
// without NarrowTypes expects float32 inputs. Narrow (integer-elem) inputs
// are widened — exactly, every value is an 8-bit integer — for non-narrow
// knobs; everything else passes through untouched.
func inputsFor(k Knob, refB *built) map[string]*engine.Buffer {
	need := false
	for _, b := range refB.Inputs {
		if b.Elem != engine.ElemF32 {
			need = true
		}
	}
	if !need || k.NarrowTypes {
		return refB.Inputs
	}
	out := make(map[string]*engine.Buffer, len(refB.Inputs))
	for name, b := range refB.Inputs {
		if b.Elem != engine.ElemF32 {
			out[name] = engine.ConvertBuffer(b, engine.ElemF32)
		} else {
			out[name] = b
		}
	}
	return out
}

// cloneBuffer deep-copies a buffer (the frame sweep mutates inputs between
// frames and must not touch the spec's shared originals).
func cloneBuffer(src *engine.Buffer) *engine.Buffer {
	out := engine.NewBufferElem(src.Box, src.Elem)
	out.CopyRegion(src, src.Box)
	return out
}

// centerRect returns the rectangle covering the middle half of each
// dimension of box — the dirty region the ROI knob confines its
// between-frame mutations to.
func centerRect(box affine.Box) affine.Box {
	r := make(affine.Box, len(box))
	for d, rg := range box {
		ext := rg.Size()
		lo := rg.Lo + ext/4
		hi := lo + ext/2 - 1
		if hi < lo {
			hi = lo
		}
		if hi > rg.Hi {
			hi = rg.Hi
		}
		r[d] = affine.Range{Lo: lo, Hi: hi}
	}
	return r
}

// diffFrames streams the program over k.Frames frames, mutating the inputs
// between frames — inside a centered dirty rectangle (passed to the stream
// as the ROI) when k.ROI is set, everywhere otherwise — and comparing every
// frame's live-outs against an independent whole-graph reference execution
// on that frame's exact inputs. Frame-to-frame buffer retention, the
// per-tile dirty decision and the clean-tile copies from the previous
// frame's buffers are all under test.
func diffFrames(sp PipelineSpec, k Knob, opts RunOptions, prog *engine.Program, refB *built, fail func(output, detail string) *Mismatch) *Mismatch {
	s, err := prog.Executor().NewStream(engine.StreamOptions{})
	if err != nil {
		return fail("", fmt.Sprintf("stream: %v", err))
	}
	defer s.Close()
	names := make([]string, 0, len(refB.Inputs))
	for name := range refB.Inputs {
		names = append(names, name)
	}
	slices.Sort(names)
	cur := make(map[string]*engine.Buffer, len(refB.Inputs))
	for _, name := range names {
		cur[name] = cloneBuffer(refB.Inputs[name])
	}
	// The stream needs inputs in the knob's layout. Mutation happens on the
	// native-elem clones (FillPattern writes integers into narrow buffers,
	// keeping Integer specs exact); when the layouts differ, a persistent
	// converted set mirrors the clones each frame — same buffer identities
	// frame to frame, values equal by exact widening.
	runIns := cur
	conv := map[string]*engine.Buffer{}
	for _, name := range names {
		if cur[name].Elem != engine.ElemF32 && !k.NarrowTypes {
			conv[name] = engine.ConvertBuffer(cur[name], engine.ElemF32)
		}
	}
	if len(conv) > 0 {
		runIns = make(map[string]*engine.Buffer, len(cur))
		for _, name := range names {
			if c, ok := conv[name]; ok {
				runIns[name] = c
			} else {
				runIns[name] = cur[name]
			}
		}
	}
	var roi affine.Box
	if k.ROI {
		roi = centerRect(cur[names[0]].Box)
	}
	for f := 0; f < k.Frames; f++ {
		var frameROI affine.Box
		if f > 0 {
			seed := sp.Seed*1009 + int64(f)*37
			if k.ROI {
				// Refresh only the rectangle: the dirty-rect contract is
				// that everything outside it is unchanged since the
				// previous frame.
				for i, name := range names {
					b := cur[name]
					if len(b.Box) != len(roi) {
						continue
					}
					tmp := engine.NewBufferElem(b.Box, b.Elem)
					engine.FillPattern(tmp, seed+int64(i))
					b.CopyRegion(tmp, roi)
				}
				frameROI = roi
			} else {
				for i, name := range names {
					engine.FillPattern(cur[name], seed+int64(i))
				}
			}
			for name, c := range conv {
				c.CopyRegion(cur[name], c.Box)
			}
		}
		ref, err := engine.Reference(refB.Graph, refB.Params, cur)
		if err != nil {
			return fail("", fmt.Sprintf("frame %d reference: %v", f, err))
		}
		out, err := s.RunFrame(runIns, frameROI)
		if err != nil {
			return fail("", fmt.Sprintf("frame %d: %v", f, err))
		}
		for _, lo := range refB.LiveOuts {
			got, ok := out[lo]
			if !ok || got == nil {
				return fail(lo, fmt.Sprintf("frame %d: output missing", f))
			}
			if detail := Compare(got, ref[lo], opts.Atol, opts.MaxULP); detail != "" {
				return fail(lo, fmt.Sprintf("frame %d: %s", f, detail))
			}
		}
	}
	return nil
}

// diffConcurrent runs the program from k.Concurrent goroutines at once
// (two rounds each, recycling between rounds) and compares every result
// against the sequential reference. All runs share the fleet scheduler, so
// a slot table, liveness map or scratchpad shared across runs shows up as
// a value mismatch here even when each run is individually correct.
func diffConcurrent(k Knob, opts RunOptions, prog *engine.Program, refB *built, ref map[string]*engine.Buffer, ins map[string]*engine.Buffer, fail func(output, detail string) *Mismatch) *Mismatch {
	var mu sync.Mutex
	var first *Mismatch
	report := func(m *Mismatch) {
		mu.Lock()
		if first == nil {
			first = m
		}
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < k.Concurrent; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				out, err := prog.Run(ins)
				if err != nil {
					report(fail("", fmt.Sprintf("goroutine %d run %d: %v", g, pass, err)))
					return
				}
				for _, lo := range refB.LiveOuts {
					got, ok := out[lo]
					if !ok || got == nil {
						report(fail(lo, fmt.Sprintf("goroutine %d run %d: output missing", g, pass)))
						return
					}
					if detail := Compare(got, ref[lo], opts.Atol, opts.MaxULP); detail != "" {
						report(fail(lo, fmt.Sprintf("goroutine %d run %d: %s", g, pass, detail)))
						return
					}
				}
				prog.Executor().Recycle(out)
			}
		}(g)
	}
	wg.Wait()
	return first
}

// Compare checks shape and value equality of two buffers; it returns ""
// on success or a description of the first divergence. A value pair is
// accepted when its absolute difference is within atol or its distance is
// within maxULP units in the last place (the relative criterion). It is
// the oracle shared by the knob sweep and the golden app tests.
func Compare(got, want *engine.Buffer, atol float64, maxULP uint32) string {
	if want == nil {
		return "no reference buffer"
	}
	if len(got.Box) != len(want.Box) {
		return fmt.Sprintf("rank %d, want %d", len(got.Box), len(want.Box))
	}
	for d := range got.Box {
		if got.Box[d] != want.Box[d] {
			return fmt.Sprintf("box dim %d is %v, want %v", d, got.Box[d], want.Box[d])
		}
	}
	if got.Elem != engine.ElemF32 || want.Elem != engine.ElemF32 {
		// Narrow buffers (and narrow-vs-float pairs) compare widened:
		// integer widening is exact, so with a zero budget this is bit
		// equality of the stored integers.
		for i := int64(0); i < int64(got.Len()); i++ {
			g, w := got.LoadF64(i), want.LoadF64(i)
			if g == w {
				continue
			}
			if d := g - w; d >= -atol && d <= atol {
				continue
			}
			if u := ulpDiff(float32(g), float32(w)); u <= maxULP {
				continue
			}
			return fmt.Sprintf("data[%d] = %v (%s), want %v (%s) (checksum got=%x want=%x)",
				i, g, got.Elem, w, want.Elem, Checksum(got), Checksum(want))
		}
		return ""
	}
	for i := range got.Data {
		g, w := got.Data[i], want.Data[i]
		if g == w {
			continue
		}
		d := float64(g) - float64(w)
		if d >= -atol && d <= atol {
			continue
		}
		if u := ulpDiff(g, w); u <= maxULP {
			continue
		}
		return fmt.Sprintf("data[%d] = %v, want %v (ulp=%d, checksum got=%x want=%x)",
			i, g, w, ulpDiff(g, w), Checksum(got), Checksum(want))
	}
	return ""
}

// SameBits reports whether two buffers hold the same element type, length
// and stored bits — the oracle between two execution tiers that must be
// drop-in substitutes, where Compare's == would let ±0 and its budget a
// rounding difference through. It returns "" or the first divergence.
func SameBits(got, want *engine.Buffer) string {
	if got == nil || got.Elem != want.Elem || got.Len() != want.Len() {
		return "missing, or of another element type or length"
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			return fmt.Sprintf("data[%d] = %v, want %v", i, got.Data[i], want.Data[i])
		}
	}
	// A narrow buffer holds its integers in the typed slice.
	if !slices.Equal(got.U8, want.U8) || !slices.Equal(got.U16, want.U16) || !slices.Equal(got.I32, want.I32) {
		return fmt.Sprintf("%s contents differ (checksum got=%x want=%x)", want.Elem, Checksum(got), Checksum(want))
	}
	return ""
}

// ulpDiff returns the distance between two float32 values in units in the
// last place (the number of representable values between them). NaNs are
// infinitely far from everything including themselves.
func ulpDiff(a, b float32) uint32 {
	if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
		return math.MaxUint32
	}
	ia, ib := orderedBits(a), orderedBits(b)
	d := ia - ib
	if d < 0 {
		d = -d
	}
	if d > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(d)
}

// orderedBits maps a float32 onto a monotone integer line (sign-magnitude
// to offset representation), so ULP distance is integer subtraction.
func orderedBits(f float32) int64 {
	u := math.Float32bits(f)
	if u&0x8000_0000 != 0 {
		return -int64(u & 0x7fff_ffff)
	}
	return int64(u)
}

// Checksum returns an order-dependent FNV-1a-style hash of a buffer's
// shape and exact bit contents — a compact fingerprint for golden oracles
// and failure messages. Each box bound, the element-type tag and each
// element is one xor-multiply step over the whole word (not one per byte:
// a float32 has four and the step is a serial multiply chain, which made
// this a visible share of a served request).
func Checksum(b *engine.Buffer) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	for _, r := range b.Box {
		mix(uint64(r.Lo))
		mix(uint64(r.Hi))
	}
	// Narrow layouts tag the element type and mix the raw stored integers,
	// so a uint8 buffer and a float32 buffer holding the same values
	// fingerprint differently.
	switch b.Elem {
	case engine.ElemU8:
		mix(uint64(b.Elem))
		for _, v := range b.U8 {
			mix(uint64(v))
		}
	case engine.ElemU16:
		mix(uint64(b.Elem))
		for _, v := range b.U16 {
			mix(uint64(v))
		}
	case engine.ElemI32:
		mix(uint64(b.Elem))
		for _, v := range b.I32 {
			mix(uint64(uint32(v)))
		}
	default:
		for _, v := range b.Data {
			mix(uint64(math.Float32bits(v)))
		}
	}
	return h
}
