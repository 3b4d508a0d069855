package difftest

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/affine"
	"repro/internal/engine"
)

// TestIntegerSeedCorpus is the narrow-type face of the corpus: seeded
// integer DAGs (uint8 input, all-integral stages renormalized into
// [0, 255]) diffed against the float64 reference under the narrow sweep
// with the zero-tolerance oracle — the narrow layouts, the integer row VM,
// the gencorpus int64 kernels (hand- and auto-scheduled) and the float32
// layout of the same pipeline must all agree bit for bit.
func TestIntegerSeedCorpus(t *testing.T) {
	n := IntegerCorpusSeeds
	if testing.Short() {
		n = 12
	}
	opts := RunOptions{Knobs: NarrowKnobs()}
	for i := 0; i < n; i++ {
		seed := int64(IntegerCorpusBase + i)
		sp := GenerateInteger(seed)
		m, err := Diff(sp, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m != nil {
			reportShrunk(t, m, opts)
		}
	}
}

// TestIntegerCorpusBindsKernels is TestGenKnobCorpus's coverage guard for
// the integer corpus: under both NarrowGenKnobs every seed runs generated
// kernels, no eligible piece lacks a checked-in one, and none is refused for
// a per-element fallback — so the narrow knobs of the sweep above do execute
// the int64 kernels.
func TestIntegerCorpusBindsKernels(t *testing.T) {
	for _, k := range NarrowGenKnobs() {
		intPieces := 0
		for i := int64(0); i < IntegerCorpusSeeds; i++ {
			seed := IntegerCorpusBase + i
			prog, err := BuildProgram(GenerateInteger(seed), k)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			st := prog.Stats()
			for _, u := range prog.GenUnits() {
				if u.Set() == "int64" {
					intPieces++
				}
			}
			prog.Close()
			if m := st.GenMisses; m.NoKernel != 0 {
				t.Errorf("seed %d under %s: %+v (rerun go run ./cmd/polymage-gen)", seed, k.Name, m)
			}
			gen := 0
			for _, sm := range st.Stages {
				gen += sm.Gen
			}
			if gen == 0 {
				t.Errorf("seed %d under %s ran no generated kernel", seed, k.Name)
			}
		}
		if intPieces == 0 {
			t.Errorf("%s: no piece of the integer corpus is an int64-body unit", k.Name)
		}
	}
}

// TestIntegerCorpusNarrows guards the corpus against silently degrading
// into a float sweep: a strong majority of integer seeds must actually
// narrow storage (non-float32 stage elements) and stay int-VM eligible
// when compiled under a narrow knob.
func TestIntegerCorpusNarrows(t *testing.T) {
	k := NarrowKnobs()[0] // narrow-vm-seq
	narrowed, intExact := 0, 0
	const n = 24
	for i := 0; i < n; i++ {
		sp := GenerateInteger(int64(IntegerCorpusBase + i))
		prog, err := BuildProgram(sp, k)
		if err != nil {
			t.Fatalf("seed %d: %v", sp.Seed, err)
		}
		sawNarrow, sawExact := false, false
		for _, sm := range prog.Stats().Stages {
			if sm.Elem != "float32" {
				sawNarrow = true
			}
			if sm.IntExact {
				sawExact = true
			}
		}
		prog.Close()
		if sawNarrow {
			narrowed++
		}
		if sawExact {
			intExact++
		}
	}
	if narrowed < n*3/4 {
		t.Errorf("only %d/%d integer seeds narrowed any stage", narrowed, n)
	}
	if intExact < n*3/4 {
		t.Errorf("only %d/%d integer seeds were int-VM eligible anywhere", intExact, n)
	}
}

// TestIntegerMutationCaught: an off-by-one perturbation on the optimized
// side of an integer spec must be caught by the narrow sweep's exactness
// oracle and shrink to a small repro that keeps both the perturbed stage
// and the Integer flag. The narrow-gen point must catch it on its own too:
// a perturbed piece has no kernel and falls to the integer VM between
// generated neighbours.
func TestIntegerMutationCaught(t *testing.T) {
	for _, knobs := range [][]Knob{NarrowKnobs(), NarrowGenKnobs()[1:]} {
		integerMutationCaught(t, RunOptions{Knobs: knobs, Perturb: true})
	}
}

func integerMutationCaught(t *testing.T, opts RunOptions) {
	for _, seed := range []int64{3, 159} {
		sp := GenerateInteger(seed)
		sp.Stages[len(sp.Stages)/2].Perturb = true
		m, err := Diff(sp, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m == nil {
			t.Fatalf("seed %d: +1 perturbation not caught by the integer sweep", seed)
		}
		fails := func(s PipelineSpec) bool {
			sm, err := Diff(s, opts)
			return err == nil && sm != nil
		}
		shrunk := Shrink(sp, fails)
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
}

// TestNarrowLiterals: integer repros replay faithfully — the spec literal
// pins Integer, the knob literal pins NarrowTypes, and the snippet carries
// both.
func TestNarrowLiterals(t *testing.T) {
	sp := GenerateInteger(7)
	if lit := SpecLiteral(sp); !strings.Contains(lit, "Integer: true") {
		t.Errorf("SpecLiteral missing Integer flag: %s", lit)
	}
	k := NarrowKnobs()[0]
	lit := KnobLiteral(k)
	for _, frag := range []string{"NarrowTypes: true", "Threads: 1"} {
		if !strings.Contains(lit, frag) {
			t.Errorf("KnobLiteral missing %q: %s", frag, lit)
		}
	}
	m := &Mismatch{Spec: sp, Knob: k, Output: "s0", Detail: "synthetic"}
	snip := GoSnippet(m)
	for _, frag := range []string{"Integer: true", "NarrowTypes: true"} {
		if !strings.Contains(snip, frag) {
			t.Errorf("GoSnippet missing %q:\n%s", frag, snip)
		}
	}
	// The float knobs must not render the narrow flag.
	if lit := KnobLiteral(DefaultKnobs()[0]); strings.Contains(lit, "NarrowTypes") {
		t.Errorf("float knob literal mentions NarrowTypes: %s", lit)
	}
}

// TestDefaultSweepHasNarrowKnob: the standard sweep exercises bitwidth
// inference on every (float) corpus seed, pinning the pass to be a no-op
// there.
func TestDefaultSweepHasNarrowKnob(t *testing.T) {
	for _, k := range DefaultKnobs() {
		if k.NarrowTypes {
			return
		}
	}
	t.Fatal("default sweep has no NarrowTypes knob")
}

// TestCompareNarrowBuffers: the oracle compares narrow buffers (and
// narrow-vs-float pairs) by widened value, with bit equality under a zero
// budget.
func TestCompareNarrowBuffers(t *testing.T) {
	box := affine.Box{{Lo: 0, Hi: 3}}
	u8 := engine.NewBufferElem(box, engine.ElemU8)
	f32 := engine.NewBufferElem(box, engine.ElemF32)
	for i := int64(0); i < 4; i++ {
		u8.StoreF64(i, float64(40*i))
		f32.StoreF64(i, float64(40*i))
	}
	if d := Compare(u8, f32, 0, 0); d != "" {
		t.Errorf("equal u8-vs-f32 buffers compared unequal: %s", d)
	}
	u8b := engine.ConvertBuffer(u8, engine.ElemU8)
	if d := Compare(u8, u8b, 0, 0); d != "" {
		t.Errorf("equal u8 buffers compared unequal: %s", d)
	}
	u8b.StoreF64(2, 81)
	d := Compare(u8, u8b, 0, 0)
	if d == "" {
		t.Fatal("differing u8 buffers compared equal")
	}
	if !strings.Contains(d, "data[2]") {
		t.Errorf("mismatch detail does not name the offset: %s", d)
	}
	// Tolerance still applies to widened values.
	if d := Compare(u8, u8b, 1.5, 0); d != "" {
		t.Errorf("within-atol u8 buffers compared unequal: %s", d)
	}
}

// TestChecksumElemAware: narrow buffers fingerprint their element type and
// raw integer contents; the float32 path is unchanged, so a uint8 buffer
// and a float32 buffer holding the same values hash differently.
func TestChecksumElemAware(t *testing.T) {
	box := affine.Box{{Lo: 0, Hi: 7}}
	u8 := engine.NewBufferElem(box, engine.ElemU8)
	f32 := engine.NewBufferElem(box, engine.ElemF32)
	for i := int64(0); i < 8; i++ {
		u8.StoreF64(i, float64(i*17%256))
		f32.StoreF64(i, float64(i*17%256))
	}
	if Checksum(u8) == Checksum(f32) {
		t.Error("uint8 and float32 buffers with equal values share a checksum")
	}
	u16 := engine.ConvertBuffer(u8, engine.ElemU16)
	if Checksum(u8) == Checksum(u16) {
		t.Error("uint8 and uint16 buffers with equal values share a checksum")
	}
	cp := engine.ConvertBuffer(u8, engine.ElemU8)
	if Checksum(u8) != Checksum(cp) {
		t.Error("identical uint8 buffers hash differently")
	}
	cp.StoreF64(5, 200)
	if Checksum(u8) == Checksum(cp) {
		t.Error("differing uint8 buffers share a checksum")
	}
}

// TestChecksumLanes: the eight-lane digest is order-dependent within a
// lane and across lanes — swapping two adjacent elements changes it, and
// so does swapping two elements eight apart (the same lane) — for every
// length around the lane count and both layouts, and it does not change
// with GOMAXPROCS.
func TestChecksumLanes(t *testing.T) {
	for _, el := range []engine.Elem{engine.ElemF32, engine.ElemU8} {
		for _, n := range []int64{2, 7, 8, 9, 16, 17, 100} {
			b := engine.NewBufferElem(affine.Box{{Lo: 0, Hi: n - 1}}, el)
			for i := int64(0); i < n; i++ {
				b.StoreF64(i, float64(i%251+1))
			}
			base := Checksum(b)
			swapped := func(i, j int64) uint64 {
				c := engine.ConvertBuffer(b, el)
				vi, vj := c.LoadF64(i), c.LoadF64(j)
				c.StoreF64(i, vj)
				c.StoreF64(j, vi)
				return Checksum(c)
			}
			for i := int64(0); i+1 < n; i++ {
				if swapped(i, i+1) == base {
					t.Errorf("%s n=%d: swapping elements %d and %d leaves the checksum", el, n, i, i+1)
				}
				if i+8 < n && swapped(i, i+8) == base {
					t.Errorf("%s n=%d: swapping elements %d and %d leaves the checksum", el, n, i, i+8)
				}
			}
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				got := Checksum(b)
				runtime.GOMAXPROCS(prev)
				if got != base {
					t.Errorf("%s n=%d: checksum %x at GOMAXPROCS %d, %x before", el, n, got, procs, base)
				}
			}
		}
	}
}
