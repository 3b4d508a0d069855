package difftest

import (
	"fmt"
	"strings"
)

// Shrink greedily minimizes a failing spec while the predicate keeps
// holding: it drops stages (rewiring consumers to the dropped stage's
// producer), halves the extent, simplifies stage expressions down a
// complexity ladder, and clears the piecewise/parametric flags, looping
// until a fixpoint. The result is a small replayable repro; render it
// with GoSnippet.
func Shrink(sp PipelineSpec, fails func(PipelineSpec) bool) PipelineSpec {
	for changed := true; changed; {
		changed = false
		// Drop stages, from the end (later stages are more likely to be
		// incidental consumers of the culprit).
		for i := len(sp.Stages) - 1; i >= 0; i-- {
			if len(sp.Stages) <= 1 {
				break
			}
			if cand := dropStage(sp, i); fails(cand) {
				sp = cand
				changed = true
			}
		}
		// Shrink the extent.
		for sp.extent() > 16 {
			cand := clone(sp)
			cand.N = sp.extent() / 2
			if !fails(cand) {
				break
			}
			sp = cand
			changed = true
		}
		// Simplify expressions: walk each stage down the kind ladder and
		// clear its piecewise condition.
		for i := range sp.Stages {
			for {
				simpler, ok := simplerKind(sp.Stages[i].Kind)
				if !ok {
					break
				}
				cand := clone(sp)
				cand.Stages[i].Kind = simpler
				if !fails(cand) {
					break
				}
				sp = cand
				changed = true
			}
			if sp.Stages[i].BoxCond {
				cand := clone(sp)
				cand.Stages[i].BoxCond = false
				if fails(cand) {
					sp = cand
					changed = true
				}
			}
		}
		if sp.Parametric {
			cand := clone(sp)
			cand.Parametric = false
			if fails(cand) {
				sp = cand
				changed = true
			}
		}
		// A finding that reproduces without integer mode is not narrow-
		// specific; prefer the plain float repro.
		if sp.Integer {
			cand := clone(sp)
			cand.Integer = false
			if fails(cand) {
				sp = cand
				changed = true
			}
		}
	}
	return sp
}

func clone(sp PipelineSpec) PipelineSpec {
	sp.Stages = append([]StageSpec(nil), sp.Stages...)
	return sp
}

// dropStage removes stage i, rewiring every reference to it to its own
// primary producer (and renumbering references to later stages). The
// degrade-to-copy semantics of Build keep any rewired spec valid.
func dropStage(sp PipelineSpec, i int) PipelineSpec {
	redirect := clampIdx(sp.Stages[i].P, i)
	out := clone(sp)
	out.Stages = append(out.Stages[:i], out.Stages[i+1:]...)
	remap := func(ref, j int) int {
		// Resolve in the original numbering (j is the original index of
		// the referencing stage), then translate.
		r := clampIdx(ref, j)
		switch {
		case r == i:
			return redirect
		case r > i:
			return r - 1
		default:
			return r
		}
	}
	for j := range out.Stages {
		orig := j
		if j >= i {
			orig = j + 1
		}
		out.Stages[j].P = remap(out.Stages[j].P, orig)
		out.Stages[j].Q = remap(out.Stages[j].Q, orig)
	}
	return out
}

// simplerKind steps one rung down the expression-complexity ladder.
func simplerKind(k StageKind) (StageKind, bool) {
	switch k {
	case KindStencil9:
		return KindStencil5, true
	case KindStencil5, KindStencil2D:
		return KindStencil3, true
	case KindStencil3, KindPointAdd, KindPointMad, KindDown, KindUp:
		return KindCopy, true
	}
	return k, false
}

// SpecLiteral renders the spec as a compilable Go composite literal.
func SpecLiteral(sp PipelineSpec) string {
	var b strings.Builder
	fmt.Fprintf(&b, "difftest.PipelineSpec{Seed: %d, Rank: %d, N: %d", sp.Seed, sp.rank(), sp.extent())
	if sp.Parametric {
		b.WriteString(", Parametric: true")
	}
	if sp.Integer {
		b.WriteString(", Integer: true")
	}
	b.WriteString(", Stages: []difftest.StageSpec{")
	for i, st := range sp.Stages {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "{Kind: difftest.Kind%s, P: %d", st.Kind, st.P)
		if st.Kind == KindPointAdd {
			fmt.Fprintf(&b, ", Q: %d", st.Q)
		}
		if st.Axis != 0 {
			fmt.Fprintf(&b, ", Axis: %d", st.Axis)
		}
		if st.BoxCond {
			b.WriteString(", BoxCond: true")
		}
		if st.Perturb {
			b.WriteString(", Perturb: true")
		}
		b.WriteString("}")
	}
	b.WriteString("}}")
	return b.String()
}

// KnobLiteral renders a knob as a compilable Go composite literal, so a
// repro replays exactly the failing configuration — thread count, tiling
// strategy, and for streamed findings the frame count and ROI flag.
func KnobLiteral(k Knob) string {
	var b strings.Builder
	fmt.Fprintf(&b, "difftest.Knob{Name: %q", k.Name)
	if len(k.Tiles) > 0 {
		b.WriteString(", Tiles: []int64{")
		for i, t := range k.Tiles {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%d", t)
		}
		b.WriteString("}")
	}
	if k.DisableFusion {
		b.WriteString(", DisableFusion: true")
	}
	if k.DisableInline {
		b.WriteString(", DisableInline: true")
	}
	if k.Fast {
		b.WriteString(", Fast: true")
	}
	if k.Threads != 0 {
		fmt.Fprintf(&b, ", Threads: %d", k.Threads)
	}
	if k.ReuseBuffers {
		b.WriteString(", ReuseBuffers: true")
	}
	if k.Tiling != 0 {
		fmt.Fprintf(&b, ", Tiling: engine.TilingStrategy(%d)", int(k.Tiling))
	}
	if k.NarrowTypes {
		b.WriteString(", NarrowTypes: true")
	}
	if k.Auto {
		b.WriteString(", Auto: true")
	}
	if k.Concurrent > 1 {
		fmt.Fprintf(&b, ", Concurrent: %d", k.Concurrent)
	}
	if k.Frames > 1 {
		fmt.Fprintf(&b, ", Frames: %d", k.Frames)
	}
	if k.ROI {
		b.WriteString(", ROI: true")
	}
	if k.Serve {
		b.WriteString(", Serve: true")
	}
	b.WriteString("}")
	return b.String()
}

// GoSnippet renders a ready-to-paste Go test reproducing a mismatch: the
// generator seed, the (typically shrunk) spec literal and a sweep pinned
// to the failing knob (frame count and ROI preserved).
func GoSnippet(m *Mismatch) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// difftest repro: seed %d, knob %s\n", m.Spec.Seed, m.Knob)
	fmt.Fprintf(&b, "// %s\n", m.Detail)
	b.WriteString("func TestDiffRepro(t *testing.T) {\n")
	fmt.Fprintf(&b, "\tspec := %s\n", SpecLiteral(m.Spec))
	fmt.Fprintf(&b, "\tm, err := difftest.Diff(spec, difftest.RunOptions{Knobs: []difftest.Knob{%s}})\n", KnobLiteral(m.Knob))
	b.WriteString("\tif err != nil {\n\t\tt.Fatal(err)\n\t}\n")
	b.WriteString("\tif m != nil {\n\t\tt.Fatal(m)\n\t}\n")
	b.WriteString("}\n")
	return b.String()
}
