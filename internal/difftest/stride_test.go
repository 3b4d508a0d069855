package difftest

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// TestGenStride: the generated kernels that read at a stride, four lanes
// per iteration from windows over each tap row, against the row VM, the
// scalar tier and the reference interpreter, exactly, with out's rows
// starting at −4, −1 and 5 and 1, 3, 4, 5, 7, 8 and 37 elements wide: no
// full lane iteration, one with and without a remainder, two, and many.
// Every piece binds a checked-in kernel, and out's kernel runs as many
// lanes as the case names.
func TestGenStride(t *testing.T) {
	var cases []GatherCase
	lanes := map[string]int{}
	for _, sc := range StrideCases() {
		for _, s := range []int64{0, 3, 9} {
			for _, n := range []int64{1, 3, 4, 5, 7, 8, 37} {
				gc := sc.GatherCase
				gc.Name = fmt.Sprintf("%s/start=%d/n=%d", sc.Name, s-4, n)
				gc.Params = map[string]int64{"S": s, "N": n}
				cases = append(cases, gc)
				lanes[gc.Name] = sc.Lanes
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
		found := false
		for _, u := range prog.GenUnits() {
			if u.Stage == "out" {
				found = true
				if u.Lanes() != lanes[gc.Name] {
					t.Errorf("out's kernel runs %d lanes, want %d", u.Lanes(), lanes[gc.Name])
				}
			}
		}
		if !found {
			t.Error("out has no generated-kernel unit")
		}
	})
}
