package core_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/pipeline"
)

// TestReadTablesFresh: after core.Compile of the seven apps at test size
// and of the generated pipelines of seeds 1–40, every stage's read table
// equals a fresh walk of its final definition, so the inliner's rewrites
// leave no table stale.
func TestReadTablesFresh(t *testing.T) {
	type input struct {
		name   string
		b      *dsl.Builder
		outs   []string
		params map[string]int64
	}
	var inputs []input
	for _, app := range apps.All() {
		b, outs := app.Build()
		inputs = append(inputs, input{app.Name, b, outs, app.TestParams})
	}
	for seed := int64(1); seed <= 40; seed++ {
		built, err := difftest.Generate(seed).Build(false)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("seed%03d", seed), built.Graph.Builder, built.LiveOuts, built.Params})
	}
	inlined := 0
	for _, in := range inputs {
		pl, err := core.Compile(in.b, in.outs, core.Options{Estimates: in.params, AllowUnproven: true})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		inlined += len(pl.Inlined)
		for _, name := range pl.Graph.Order {
			st := pl.Graph.Stages[name]
			want := freshReads(st)
			if len(st.Reads) != len(want) {
				t.Errorf("%s: stage %s has %d reads in its table, a fresh walk %d", in.name, name, len(st.Reads), len(want))
				continue
			}
			for i, r := range st.Reads {
				if !sameRead(r, want[i]) {
					t.Errorf("%s: stage %s read %d is %+v, a fresh walk gives %+v", in.name, name, i, r, want[i])
					break
				}
			}
		}
	}
	if inlined == 0 {
		t.Error("no stage was inlined: nothing rewrote a table")
	}
}

// freshReads walks a stage's definition as the table's documentation
// orders it and analyses every index with expr.ToAffineAccess.
func freshReads(st *pipeline.Stage) []pipeline.Read {
	var out []pipeline.Read
	calls := 0
	add := func(a expr.Access, site pipeline.Site, cs int) {
		for d, arg := range a.Args {
			r := pipeline.Read{Target: a.Target, Call: calls, ProducerDim: d, Site: site, Case: cs, Arg: arg}
			r.Acc, r.OK = expr.ToAffineAccess(arg)
			out = append(out, r)
		}
		calls++
	}
	walker := func(site pipeline.Site, cs int) func(expr.Expr) bool {
		return func(e expr.Expr) bool {
			if a, ok := e.(expr.Access); ok {
				add(a, site, cs)
			}
			return true
		}
	}
	if st.IsAccumulator() {
		for _, e := range st.AccTarget {
			expr.Walk(e, walker(pipeline.AccTarget, 0))
		}
		expr.Walk(st.AccValue, walker(pipeline.AccValue, 0))
		add(expr.Access{Target: st.Name, Args: st.AccTarget}, pipeline.AccWrite, 0)
		return out
	}
	for i, c := range st.Cases {
		expr.Walk(c.E, walker(pipeline.CaseExpr, i))
	}
	for i, c := range st.Cases {
		if c.Cond != nil {
			expr.WalkCond(c.Cond, walker(pipeline.CaseCond, i))
		}
	}
	return out
}

func sameRead(a, b pipeline.Read) bool {
	return a.Target == b.Target && a.Call == b.Call && a.ProducerDim == b.ProducerDim &&
		a.Site == b.Site && a.Case == b.Case && a.Arg.String() == b.Arg.String() && a.OK == b.OK &&
		(!a.OK || a.Acc.Var == b.Acc.Var && a.Acc.Coeff == b.Acc.Coeff && a.Acc.Div == b.Acc.Div && a.Acc.Off.Equal(b.Acc.Off))
}
