package difftest

import (
	"reflect"
	"strings"
	"testing"
)

// TestSeedCorpus is the deterministic tier-1 face of the fuzzer: 200
// seeded random DAGs (mixing 1-D, 2-D, parametric, piecewise and
// multi-output pipelines), each executed through the reference
// interpreter and through the optimized engine under the full 9-knob
// sweep, twice per knob through the persistent executor. Any mismatch is
// shrunk and reported as a replayable snippet.
func TestSeedCorpus(t *testing.T) {
	const base = 20260805
	const chunks = 8
	n := 200
	if testing.Short() {
		n = 48
	}
	per := (n + chunks - 1) / chunks
	for c := 0; c < chunks; c++ {
		c := c
		t.Run("", func(t *testing.T) {
			t.Parallel()
			for i := c * per; i < (c+1)*per && i < n; i++ {
				seed := int64(base + i)
				sp := Generate(seed)
				m, err := Diff(sp, RunOptions{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if m != nil {
					reportShrunk(t, m, RunOptions{})
				}
			}
		})
	}
}

// reportShrunk minimizes a failing spec and fails the test with a
// replayable snippet.
func reportShrunk(t *testing.T, m *Mismatch, opts RunOptions) {
	t.Helper()
	shrunk := Shrink(m.Spec, func(sp PipelineSpec) bool {
		sm, err := Diff(sp, opts)
		return err == nil && sm != nil
	})
	sm, err := Diff(shrunk, opts)
	if err != nil || sm == nil {
		sm = m // shrinking lost the failure; report the original
	}
	t.Fatalf("difftest mismatch (original: %v)\nshrunk repro:\n%s", m, GoSnippet(sm))
}

// FuzzDiff wires the generator into Go native fuzzing: the fuzzer mutates
// the generator seed, every input deriving a full random DAG checked
// under the quick knob subset. Run long with
//
//	go test -fuzz=FuzzDiff ./internal/difftest
func FuzzDiff(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(int64(20260805) + i*997)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		sp := Generate(seed)
		opts := RunOptions{Knobs: QuickKnobs()}
		m, err := Diff(sp, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m != nil {
			reportShrunk(t, m, opts)
		}
	})
}

// TestMutationCaught is the smoke test of the whole oracle stack: a
// deliberately broken kernel (one stage's weights perturbed on the
// optimized side only) must be caught by the sweep and shrunk to a tiny
// replayable repro.
func TestMutationCaught(t *testing.T) {
	opts := RunOptions{Knobs: QuickKnobs(), Perturb: true}
	caught := 0
	for _, seed := range []int64{3, 14, 159} {
		sp := Generate(seed)
		if len(sp.Stages) < 3 {
			t.Fatalf("seed %d: want >= 3 stages for a meaningful mutation, got %d", seed, len(sp.Stages))
		}
		sp.Stages[len(sp.Stages)/2].Perturb = true
		m, err := Diff(sp, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m == nil {
			t.Fatalf("seed %d: perturbed kernel not caught by the sweep", seed)
		}
		caught++
		fails := func(s PipelineSpec) bool {
			sm, err := Diff(s, opts)
			return err == nil && sm != nil
		}
		shrunk := Shrink(sp, fails)
		if len(shrunk.Stages) > 3 {
			t.Errorf("seed %d: shrunk repro has %d stages, want <= 3:\n%s",
				seed, len(shrunk.Stages), SpecLiteral(shrunk))
		}
		if !fails(shrunk) {
			t.Errorf("seed %d: shrunk spec no longer fails", seed)
		}
		found := false
		for _, st := range shrunk.Stages {
			if st.Perturb {
				found = true
			}
		}
		if !found {
			t.Errorf("seed %d: shrinker dropped the perturbed stage yet still fails", seed)
		}
	}
	if caught == 0 {
		t.Fatal("no mutation caught")
	}
}

// TestGenerateDeterministic: the same seed must always derive the same
// spec (failure reports replay from the seed alone).
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: nondeterministic generator", seed)
		}
	}
}

// TestGeneratorShapes checks the corpus actually covers the advertised
// feature axes (2-D, parametric, piecewise, multi-output, resampling).
func TestGeneratorShapes(t *testing.T) {
	var rank2, param, boxcond, multiOut, resample int
	for seed := int64(0); seed < 120; seed++ {
		sp := Generate(seed)
		if sp.rank() == 2 {
			rank2++
		}
		if sp.Parametric {
			param++
		}
		for _, st := range sp.Stages {
			if st.BoxCond {
				boxcond++
			}
			if st.Kind == KindDown || st.Kind == KindUp {
				resample++
			}
		}
		b, err := sp.Build(false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(b.LiveOuts) > 1 {
			multiOut++
		}
	}
	for name, n := range map[string]int{
		"rank2": rank2, "parametric": param, "boxcond": boxcond,
		"multi-output": multiOut, "resample": resample,
	} {
		if n == 0 {
			t.Errorf("generator never produced a %s pipeline in 120 seeds", name)
		}
	}
}

// TestDropStage checks the shrinker's rewiring: dropping a middle stage
// redirects its consumers to its producer and renumbers later references.
func TestDropStage(t *testing.T) {
	sp := PipelineSpec{N: 32, Rank: 1, Stages: []StageSpec{
		{Kind: KindStencil3, P: -1},
		{Kind: KindStencil3, P: 0},
		{Kind: KindPointAdd, P: 1, Q: 0},
		{Kind: KindCopy, P: 2},
	}}
	got := dropStage(sp, 1)
	// Note references are normalized: an out-of-range Q (0 on the first
	// stage) resolves to the input image, -1.
	want := []StageSpec{
		{Kind: KindStencil3, P: -1, Q: -1},
		{Kind: KindPointAdd, P: 0, Q: 0},
		{Kind: KindCopy, P: 1, Q: 0},
	}
	if !reflect.DeepEqual(got.Stages, want) {
		t.Fatalf("dropStage = %+v, want %+v", got.Stages, want)
	}
	// Dropping the first stage rewires to the input image.
	got = dropStage(sp, 0)
	if got.Stages[0].P != -1 {
		t.Fatalf("dropStage(0) consumer P = %d, want -1", got.Stages[0].P)
	}
	// A dropped spec must still build and diff cleanly.
	if m, err := Diff(got, RunOptions{Knobs: QuickKnobs()}); err != nil || m != nil {
		t.Fatalf("dropped spec unsound: %v %v", err, m)
	}
}

// TestParametricSpec: parametric extents go through the affine/param
// bounds path and still diff cleanly.
func TestParametricSpec(t *testing.T) {
	sp := PipelineSpec{Seed: 5, Rank: 1, N: 64, Parametric: true, Stages: []StageSpec{
		{Kind: KindStencil3, P: -1},
		{Kind: KindStencil5, P: 0, BoxCond: true},
		{Kind: KindPointAdd, P: 1, Q: 0},
	}}
	b, err := sp.Build(false)
	if err != nil {
		t.Fatal(err)
	}
	if b.Params["N"] != 64 {
		t.Fatalf("params = %v, want N=64", b.Params)
	}
	if m, err := Diff(sp, RunOptions{}); err != nil || m != nil {
		t.Fatalf("parametric spec: %v %v", err, m)
	}
}

func TestULPDiff(t *testing.T) {
	cases := []struct {
		a, b float32
		want uint32
	}{
		{1, 1, 0},
		{0, 0, 0},
		{1, float32(1 + 1.2e-7), 1},
		{-0, 0, 0},
		// Crossing zero counts representable values on both sides:
		// 2 x float32bits(1e-38).
		{float32(1e-38), float32(-1e-38), 14272476},
	}
	for _, c := range cases {
		if got := ulpDiff(c.a, c.b); got != c.want {
			t.Errorf("ulpDiff(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	nan := float32(0)
	nan /= nan
	if got := ulpDiff(nan, 1); got != 1<<32-1 {
		t.Errorf("ulpDiff(NaN, 1) = %d", got)
	}
}

func TestSpecLiteralRoundTrips(t *testing.T) {
	sp := Generate(77)
	lit := SpecLiteral(sp)
	for _, frag := range []string{"difftest.PipelineSpec{", "Stages: []difftest.StageSpec{"} {
		if !strings.Contains(lit, frag) {
			t.Errorf("literal missing %q: %s", frag, lit)
		}
	}
	// Every stage kind name must render as a real identifier, not a
	// numeric fallback.
	if strings.Contains(lit, "StageKind(") {
		t.Errorf("literal contains raw kind value: %s", lit)
	}
}

// streamKnobs returns the streaming subset of the default sweep (the
// frame-sequence knob, the dirty-rectangle knob and the serve-default
// dirty-rectangle stream).
func streamKnobs(t *testing.T) []Knob {
	t.Helper()
	var out []Knob
	for _, k := range DefaultKnobs() {
		if k.Frames > 1 {
			out = append(out, k)
		}
	}
	if len(out) != 3 {
		t.Fatalf("default sweep has %d streaming knobs, want 3", len(out))
	}
	return out
}

// TestStreamKnobsMutationCaught: a perturbed kernel must be caught by the
// streaming knobs alone — every frame of the sequence is ULP-diffed
// against the whole-frame reference, so a divergence in either the
// recomputed or the copied region surfaces.
func TestStreamKnobsMutationCaught(t *testing.T) {
	opts := RunOptions{Knobs: streamKnobs(t), Perturb: true}
	for _, seed := range []int64{3, 159} {
		sp := Generate(seed)
		sp.Stages[len(sp.Stages)/2].Perturb = true
		m, err := Diff(sp, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m == nil {
			t.Fatalf("seed %d: perturbed kernel not caught by the streaming knobs", seed)
		}
		if m.Knob.Frames <= 1 {
			t.Fatalf("seed %d: mismatch reported under non-streaming knob %s", seed, m.Knob)
		}
	}
}

// TestKnobLiteralPreservesStreaming: repros of streamed findings must pin
// the frame count and ROI flag so replays take the same path.
func TestKnobLiteralPreservesStreaming(t *testing.T) {
	ks := streamKnobs(t)
	roiKnob := ks[1]
	lit := KnobLiteral(roiKnob)
	for _, frag := range []string{"Frames: 3", "ROI: true", "Fast: true", "Threads: 2"} {
		if !strings.Contains(lit, frag) {
			t.Errorf("KnobLiteral missing %q: %s", frag, lit)
		}
	}
	m := &Mismatch{Spec: Generate(7), Knob: roiKnob, Output: "s0", Detail: "synthetic"}
	snip := GoSnippet(m)
	for _, frag := range []string{"Frames: 3", "ROI: true", "difftest.RunOptions{Knobs: []difftest.Knob{"} {
		if !strings.Contains(snip, frag) {
			t.Errorf("GoSnippet missing %q:\n%s", frag, snip)
		}
	}
	// The frames-only knob must not render ROI.
	if lit := KnobLiteral(ks[0]); strings.Contains(lit, "ROI") {
		t.Errorf("frames knob literal should not mention ROI: %s", lit)
	}
}

// TestServeKnobsMutationCaught: the production combination is a point of
// the sweep, not a label — each serve-default knob alone catches a
// perturbed kernel.
func TestServeKnobsMutationCaught(t *testing.T) {
	for _, k := range ServeKnobs() {
		sp := Generate(3)
		sp.Stages[len(sp.Stages)/2].Perturb = true
		m, err := Diff(sp, RunOptions{Knobs: []Knob{k}, Perturb: true})
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			t.Errorf("%s: perturbed kernel not caught", k.Name)
		}
	}
}
