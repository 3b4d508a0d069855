package engine_test

import (
	"testing"

	"repro/internal/affine"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/expr"
)

// TestVMRunsGenUnitProgram: without Fast, the row VM runs the program the
// piece's generated kernel prints, stage by stage over the hand-written
// tables and a histogram equalisation: the stage's VM instruction count is
// its units'. The named stages are those a second lowering would tell
// apart: selectarm's and u8slot's clamp to C-1 and norm's division by R·R
// fold bound parameters in canonical form, which a lowering of the source
// expression computes at run time, and hist's targets and value are one
// program, not one per target and one for the value.
func TestVMRunsGenUnitProgram(t *testing.T) {
	tables := append(difftest.GatherCases(), difftest.IntBodyCases()...)
	tables = append(tables, difftest.AccumCases()...)
	for _, pc := range difftest.PhaseCases() {
		tables = append(tables, pc.GatherCase)
	}
	for _, cc := range difftest.CarryCases() {
		tables = append(tables, cc.GatherCase)
	}
	for _, sc := range difftest.StrideCases() {
		tables = append(tables, sc.GatherCase)
	}
	tables = append(tables, difftest.MinMaxNaNCase(), difftest.ExpCase(),
		difftest.GatherCase{Name: "histeq", Build: histEqualize, Params: map[string]int64{"R": 64}})
	must := map[string]bool{"selectarm/out": false, "u8slot/out": false, "histeq/norm": false, "hist/hist": false}
	for _, gc := range tables {
		prog, err := gc.Compile(gc.Params, engine.ExecOptions{Threads: 1})
		if err != nil {
			t.Fatalf("%s: %v", gc.Name, err)
		}
		instrs, units := map[string]int{}, map[string]int{}
		for _, u := range prog.GenUnits() {
			instrs[u.Stage] += u.Instrs()
			units[u.Stage]++
		}
		for _, sm := range prog.Stats().Stages {
			if sm.RowVM == 0 || units[sm.Name] != sm.RowVM {
				continue // a piece without a unit: predicated or self-referencing
			}
			if sm.VMInstrs != instrs[sm.Name] {
				t.Errorf("%s/%s: the row VM runs %d instructions, its units' programs have %d",
					gc.Name, sm.Name, sm.VMInstrs, instrs[sm.Name])
			}
			if _, ok := must[gc.Name+"/"+sm.Name]; ok {
				must[gc.Name+"/"+sm.Name] = true
			}
		}
		prog.Close()
	}
	for name, seen := range must {
		if !seen {
			t.Errorf("%s: no stage whose every piece is a unit", name)
		}
	}
}

// histEqualize counts 16 intensity bins of an R×R image and normalises them
// by the pixel count R·R, a product of a bound parameter with itself.
func histEqualize() (*dsl.Builder, []string) {
	b := dsl.NewBuilder()
	R := b.Param("R")
	I := b.Image("I", expr.Float, R.Affine(), R.Affine())
	x, y, bin := b.Var("x"), b.Var("y"), b.Var("bin")
	dom := []dsl.Interval{
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
		dsl.Span(affine.Const(0), R.Affine().AddConst(-1)),
	}
	hist := b.Accum("hist", expr.Int, []*dsl.Variable{x, y}, dom,
		[]*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 15)})
	hist.Define([]any{dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), 15.999))}, 1, dsl.SumOp)
	norm := b.Func("norm", expr.Float, []*dsl.Variable{bin}, []dsl.Interval{dsl.ConstSpan(0, 15)})
	norm.Define(dsl.Case{E: dsl.Div(hist.At(bin), dsl.Mul(R, R))})
	out := b.Func("out", expr.Float, []*dsl.Variable{x, y}, dom)
	out.Define(dsl.Case{E: norm.At(dsl.Cast(expr.Int, dsl.Mul(I.At(x, y), 15.999)))})
	return b, []string{"out"}
}
