package difftest

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
)

// TestGenPhaseLoops: the generated phase-loop kernels against the row VM,
// the scalar tier and the reference interpreter, exactly, with out's rows
// starting even and odd, negative and positive, and 1, D−1, D, D+1 and 37
// elements wide — every width and phase origin a kernel must get right.
// Every piece binds a checked-in kernel, and out's kernel runs as the
// number of phase loops the case names.
func TestGenPhaseLoops(t *testing.T) {
	var cases []GatherCase
	phases := map[string]int{}
	for _, pc := range PhaseCases() {
		for _, s := range []int64{0, 3, 9} {
			d := int64(pc.Phases)
			for _, n := range []int64{1, d - 1, d, d + 1, 37} {
				gc := pc.GatherCase
				gc.Name = fmt.Sprintf("%s/start=%d/n=%d", pc.Name, s-4, n)
				if _, dup := phases[gc.Name]; dup || n < 1 {
					continue
				}
				gc.Params = map[string]int64{"S": s, "N": n}
				cases = append(cases, gc)
				phases[gc.Name] = pc.Phases
			}
		}
	}
	gatherTable(t, cases, gatherTiers, true, func(t *testing.T, gc GatherCase, tier gatherTier, prog *engine.Program) {
		if tier.name != "gen" {
			return
		}
		if m := prog.Stats().GenMisses; m.Total() != 0 {
			t.Errorf("GenMisses = %+v, want none (rerun go run ./cmd/polymage-gen?)", m)
		}
		for _, u := range prog.GenUnits() {
			if u.Stage == "out" && u.Phases() != phases[gc.Name] {
				t.Errorf("out's kernel runs %d phase loops, want %d", u.Phases(), phases[gc.Name])
			}
		}
	})
}

// TestGenMinMaxNaN: a float32 min whose operand is a NaN gives the same bits
// on the generated kernel and on the row VM (the builtin's: the operand's
// NaN), and a NaN wherever the reference interpreter has one.
func TestGenMinMaxNaN(t *testing.T) {
	gc := MinMaxNaNCase()
	var outs []*engine.Buffer
	for _, tier := range gatherTiers[:2] {
		opts := tier.opts
		opts.Threads = 1
		prog, err := gc.Compile(gc.Params, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer prog.Close()
		if tier.name == "gen" {
			for _, u := range prog.GenUnits() {
				if u.Set() != "float32" {
					t.Errorf("%s is a %s unit, want float32", u.Stage, u.Set())
				}
			}
			if m := prog.Stats().GenMisses; m.Total() != 0 {
				t.Errorf("GenMisses = %+v, want none (rerun go run ./cmd/polymage-gen?)", m)
			}
		}
		run, refIn := gatherInputs(t, prog)
		got, err := prog.Run(run)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.Reference(prog.Graph, gc.Params, refIn)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got["out"].Data {
			if math.IsNaN(float64(v)) != math.IsNaN(float64(ref["out"].Data[i])) {
				t.Fatalf("%s: data[%d] = %v, reference %v", tier.name, i, v, ref["out"].Data[i])
			}
		}
		outs = append(outs, got["out"])
	}
	if d := SameBits(outs[0], outs[1]); d != "" {
		t.Errorf("gen is not bit-identical to vm: %s (%#x vs %#x)", d, math.Float32bits(outs[0].Data[0]), math.Float32bits(outs[1].Data[0]))
	}
}

// TestGenExp: exp over ExpCase's arguments gives the same bits on the
// generated kernel (numeric.Exp's common path printed inline, its slow path
// called), the row VM, the scalar tier and the reference interpreter, in
// out and in the residuals mid and low that carry the float64 bits storage
// drops. A NaN matches a NaN.
func TestGenExp(t *testing.T) {
	gc := ExpCase()
	var ref map[string]*engine.Buffer
	for _, tier := range gatherTiers {
		opts := tier.opts
		opts.Threads = 1
		prog, err := gc.Compile(gc.Params, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer prog.Close()
		if tier.name == "gen" {
			if units := prog.GenUnits(); len(units) != 3 {
				t.Errorf("%d generated units, want 3", len(units))
			}
			for _, u := range prog.GenUnits() {
				if u.Set() != "float64" {
					t.Errorf("%s is a %s unit, want float64", u.Stage, u.Set())
				}
			}
			if m := prog.Stats().GenMisses; m.Total() != 0 {
				t.Errorf("GenMisses = %+v, want none (rerun go run ./cmd/polymage-gen?)", m)
			}
		}
		box, err := prog.InputBox("I")
		if err != nil {
			t.Fatal(err)
		}
		img := engine.NewBuffer(box)
		copy(img.Data, expArgs())
		in := map[string]*engine.Buffer{"I": img}
		got, err := prog.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, err = engine.Reference(prog.Graph, gc.Params, in)
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, lo := range []string{"out", "mid", "low"} {
			for i, v := range got[lo].Data {
				w := ref[lo].Data[i]
				if math.Float32bits(v) != math.Float32bits(w) && !(v != v && w != w) {
					t.Errorf("%s: %s[%d] = %v (%#x), reference %v (%#x)", tier.name, lo, i, v, math.Float32bits(v), w, math.Float32bits(w))
				}
			}
		}
	}
}
