package difftest

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// TestGenCarry: the generated kernels that carry values across iterations
// against the row VM, the scalar tier and the reference interpreter,
// exactly, with out's rows starting at −4, −1 and 5 and 1, 2, L, L+1 and 37
// elements wide (every case carries lags of at most L = 2): a row narrower
// than the lags reads only the prologue's values, a wider one rotates them.
// Every piece binds a checked-in kernel, and out's kernel carries as many
// values as the case names.
func TestGenCarry(t *testing.T) {
	var cases []GatherCase
	carried := map[string]int{}
	for _, cc := range CarryCases() {
		for _, s := range []int64{0, 3, 9} {
			for _, n := range []int64{1, 2, 3, 37} {
				gc := cc.GatherCase
				gc.Name = fmt.Sprintf("%s/start=%d/n=%d", cc.Name, s-4, n)
				gc.Params = map[string]int64{"S": s, "N": n}
				cases = append(cases, gc)
				carried[gc.Name] = cc.Carried
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
			if u.Stage == "out" && u.Carried() != carried[gc.Name] {
				t.Errorf("out's kernel carries %d values, want %d", u.Carried(), carried[gc.Name])
			}
		}
	})
}

// TestGenAccumTable: the generated accumulator kernels against the row VM's
// sweep, the scalar sweep and the reference interpreter, exactly, on one and
// two workers (private copies merged). Every accumulator binds a checked-in
// kernel.
func TestGenAccumTable(t *testing.T) {
	gatherTable(t, AccumCases(), gatherTiers, true, func(t *testing.T, gc GatherCase, tier gatherTier, prog *engine.Program) {
		if tier.name != "gen" {
			return
		}
		st := prog.Stats()
		if m := st.GenMisses; m.Total() != 0 {
			t.Errorf("GenMisses = %+v, want none (rerun go run ./cmd/polymage-gen?)", m)
		}
		for _, sm := range st.Stages {
			if sm.Gen != 1 {
				t.Errorf("%s counts Gen=%d RowVM=%d Scalar=%d, want its generated kernel", sm.Name, sm.Gen, sm.RowVM, sm.Scalar)
			}
		}
	})
}
