package difftest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// gatherTier is one execution tier the table runs every case on.
type gatherTier struct {
	name string
	opts engine.ExecOptions
}

var gatherTiers = []gatherTier{
	{"gen", engine.ExecOptions{Fast: true}},
	{"vm", engine.ExecOptions{}},
}

// gatherInputs fills the case's one image: the pattern as the compiled
// program stores it (uint8 under NarrowTypes) and as the reference
// interpreter reads it (always float32).
func gatherInputs(t *testing.T, prog *engine.Program) (run, ref map[string]*engine.Buffer) {
	t.Helper()
	box, err := prog.InputBox("I")
	if err != nil {
		t.Fatal(err)
	}
	img := engine.NewBuffer(box)
	if prog.Opts.NarrowTypes {
		img = engine.NewBufferElem(box, engine.ElemU8)
	}
	engine.FillPattern(img, 21)
	return map[string]*engine.Buffer{"I": img}, map[string]*engine.Buffer{"I": engine.ConvertBuffer(img, engine.ElemF32)}
}

// gatherTable runs every case on the given tiers with 1 and 2 threads and
// demands one answer per live-out, bit for bit, within golden tolerance of
// the reference interpreter — equal to it when exact. check, when not nil,
// sees each compiled program once.
func gatherTable(t *testing.T, cases []GatherCase, tiers []gatherTier, exact bool, check func(t *testing.T, gc GatherCase, tier gatherTier, prog *engine.Program)) {
	atol, ulp := 2e-3, uint32(64)
	if exact {
		atol, ulp = 0, 0
	}
	for _, gc := range cases {
		t.Run(gc.Name, func(t *testing.T) {
			t.Parallel()
			var first map[string]*engine.Buffer
			var firstName string
			for _, tier := range tiers {
				for threads := 1; threads <= 2; threads++ {
					name := fmt.Sprintf("%s/threads=%d", tier.name, threads)
					opts := tier.opts
					opts.Threads = threads
					prog, err := gc.Compile(gc.Params, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					defer prog.Close()
					if threads == 1 && check != nil {
						check(t, gc, tier, prog)
					}
					run, refIn := gatherInputs(t, prog)
					outs, err := prog.Run(run)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if first == nil {
						ref, err := engine.Reference(prog.Graph, gc.Params, refIn)
						if err != nil {
							t.Fatal(err)
						}
						for _, lo := range prog.Graph.LiveOuts {
							if d := Compare(outs[lo], ref[lo], atol, ulp); d != "" {
								t.Fatalf("%s: %s vs reference: %s", name, lo, d)
							}
						}
						first, firstName = outs, name
						continue
					}
					for _, lo := range prog.Graph.LiveOuts {
						if d := SameBits(outs[lo], first[lo]); d != "" {
							t.Fatalf("%s: %s is not bit-identical to %s's: %s", name, lo, firstName, d)
						}
					}
				}
			}
		})
	}
}

// TestRowVMGatherTable: the row VM's gather instruction and the row-swept
// accumulator against the reference interpreter.
func TestRowVMGatherTable(t *testing.T) {
	gatherTable(t, GatherCases(), gatherTiers[1:], false, nil)
}

// TestGenGatherTable: the generated kernels against the VM they replace and
// the reference interpreter. Every piece of the table binds a checked-in kernel,
// u8slot's gather from a uint8 slot and hist's accumulator included.
func TestGenGatherTable(t *testing.T) {
	gatherTable(t, GatherCases(), gatherTiers, false, func(t *testing.T, gc GatherCase, tier gatherTier, prog *engine.Program) {
		if tier.name != "gen" {
			return
		}
		if m := prog.Stats().GenMisses; m != (obs.GenMisses{}) {
			t.Errorf("GenMisses = %+v, want none (rerun go run ./cmd/polymage-gen?)", m)
		}
	})
}

// TestGenIntBodyTable: the generated int64 and float64-over-narrow bodies
// against the integer VM and the reference interpreter, exactly. Every
// piece binds a checked-in kernel; each case's units are of the register
// type its name says, and its live-outs of the element types it was written
// to store.
func TestGenIntBodyTable(t *testing.T) {
	wantElems := map[string]string{
		"negdiv": "int32 int32 int32", "select": "int32 uint8",
		"edges": "uint16 int32 uint8 int32", "f64narrow": "float32 uint8",
	}
	gatherTable(t, IntBodyCases(), gatherTiers, true, func(t *testing.T, gc GatherCase, tier gatherTier, prog *engine.Program) {
		if tier.name != "gen" {
			return
		}
		st := prog.Stats()
		if m := st.GenMisses; m.Total() != 0 {
			t.Errorf("GenMisses = %+v, want none (rerun go run ./cmd/polymage-gen?)", m)
		}
		elemOf := map[string]string{}
		for _, sm := range st.Stages {
			elemOf[sm.Name] = sm.Elem
		}
		var elems []string
		for _, lo := range prog.Graph.LiveOuts {
			elems = append(elems, elemOf[lo])
		}
		if got := strings.Join(elems, " "); got != wantElems[gc.Name] {
			t.Errorf("live-out element types %q, want %q", got, wantElems[gc.Name])
		}
		for _, u := range prog.GenUnits() {
			if (u.Set() == "int64") == (gc.Name == "f64narrow" && u.Stage != "wide") {
				t.Errorf("stage %s is a %s unit", u.Stage, u.Set())
			}
		}
	})
}

func gatherCase(t *testing.T, name string) GatherCase {
	t.Helper()
	for _, gc := range GatherCases() {
		if gc.Name == name {
			return gc
		}
	}
	t.Fatalf("no gather case %q", name)
	return GatherCase{}
}

// gatherFault binds lut1d so that its clamped index still leaves the
// table, and returns Run's error.
func gatherFault(t *testing.T, opts engine.ExecOptions) error {
	t.Helper()
	gc := gatherCase(t, "lut1d")
	opts.Threads = 1
	prog, err := gc.Compile(gc.Fault, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	run, _ := gatherInputs(t, prog)
	_, err = prog.Run(run)
	return err
}

// TestRowVMGatherFaults: an index outside the gathered stage is a Run
// error on both tiers — the region check's message under Debug, Go's own
// bounds check on the flat offset without it — never a crash or a read
// outside the buffer.
func TestRowVMGatherFaults(t *testing.T) {
	for _, tier := range gatherTiers {
		err := gatherFault(t, tier.opts)
		if err == nil || !strings.Contains(err.Error(), "index out of range") {
			t.Errorf("%s: out-of-buffer gather: err = %v, want a bounds-check error", tier.name, err)
		}
		dbg := tier.opts
		dbg.Debug = true
		err = gatherFault(t, dbg)
		if err == nil || !strings.Contains(err.Error(), "engine: out-of-region read of lut dim 0 at ") {
			t.Errorf("%s: out-of-region gather under Debug: err = %v, want the region check's message", tier.name, err)
		}
	}
}

// TestRowVMGatherHistDebug: an accumulator target outside the output box is
// dropped silently (the table), and panics with the sweep's message under
// Debug, swept by rows or by points. The private-copy sweep turns the panic
// into Run's error; the sequential one (a single worker) lets it through.
func TestRowVMGatherHistDebug(t *testing.T) {
	gc := gatherCase(t, "hist")
	for _, fast := range []bool{true, false} {
		prog, err := gc.Compile(gc.Params, engine.ExecOptions{Fast: fast, Debug: true, Threads: 2})
		if err != nil {
			t.Fatal(err)
		}
		run, _ := gatherInputs(t, prog)
		msg := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			_, err := prog.Run(run)
			return fmt.Sprint(err)
		}()
		prog.Close()
		if !strings.Contains(msg, "engine: accumulator hist target [") || !strings.Contains(msg, "] outside ") {
			t.Errorf("Fast=%v: got %q, want the accumulator target message", fast, msg)
		}
	}
}
