package difftest

import (
	"testing"

	_ "repro/internal/difftest/gencorpus" // ahead-of-time kernels for the piece shapes of corpus seeds 1..40
)

// gencorpusSeeds matches cmd/polymage-gen's default -corpus count: the
// piece shapes of seeds 1..40 have checked-in generated kernels.
const gencorpusSeeds = 40

// TestGenKnobCorpus differential-tests the ahead-of-time kernels: every
// corpus seed polymage-gen emitted from runs under both GenKnobs (hand and
// auto schedule — compiled kernels execute) against the reference
// interpreter, and under the same knobs without Fast, on the row VM. Any
// divergence between a generated kernel and the VM it replaces surfaces as
// a knob mismatch.
func TestGenKnobCorpus(t *testing.T) {
	var knobs []Knob
	for _, k := range GenKnobs() {
		off := k
		off.Name += "-off"
		off.Fast = false
		knobs = append(knobs, k, off)
	}
	for _, k := range GenKnobs() {
		hits := 0
		for seed := int64(1); seed <= gencorpusSeeds; seed++ {
			prog, err := BuildProgram(Generate(seed), k)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			st := prog.Stats()
			prog.Close()
			// Coverage guard: the sweep is only meaningful if the checked-in
			// kernels actually bind, piece by piece.
			if st.GenMisses.NoKernel != 0 {
				t.Errorf("seed %d under %s: %d eligible pieces have no checked-in kernel (rerun go run ./cmd/polymage-gen)",
					seed, k.Name, st.GenMisses.NoKernel)
			}
			for _, sm := range st.Stages {
				if sm.Gen > 0 {
					hits++
					break
				}
			}
		}
		if hits < gencorpusSeeds {
			t.Errorf("%s: only %d/%d corpus seeds ran generated kernels", k.Name, hits, gencorpusSeeds)
		}
	}
	for seed := int64(1); seed <= gencorpusSeeds; seed++ {
		m, err := Diff(Generate(seed), RunOptions{Knobs: knobs})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if m != nil {
			reportShrunk(t, m, RunOptions{Knobs: knobs})
		}
	}
}
