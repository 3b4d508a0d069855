package core

// End-to-end auto-scheduling through the core front-end: the searched
// schedule must be a pure scheduling decision — same values out, bit for
// bit — and must surface its search provenance through Program.Stats.

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/engine"
	"repro/internal/schedule"
)

func compileAutoApp(t *testing.T, name string, auto bool) (*Pipeline, map[string]*engine.Buffer, map[string]int64) {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	params := app.TestParams
	b, outs := app.Build()
	inputs, err := app.Inputs(b, params, 7)
	if err != nil {
		t.Fatal(err)
	}
	so := schedule.DefaultOptions()
	so.Auto = auto
	pl, err := Compile(b, outs, Options{Estimates: params, Schedule: so, AllowUnproven: true})
	if err != nil {
		t.Fatal(err)
	}
	return pl, inputs, params
}

// TestAutoCompileMatchesHand runs unsharp under the searched schedule and
// the default hand schedule on the same inputs and demands identical
// outputs: grouping and tiling choices must never change a single value.
func TestAutoCompileMatchesHand(t *testing.T) {
	var outs [2]map[string]*engine.Buffer
	for i, auto := range []bool{true, false} {
		pl, inputs, params := compileAutoApp(t, "unsharp", auto)
		prog, err := pl.Bind(params, engine.ExecOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		out, err := prog.Run(inputs)
		if err != nil {
			t.Fatal(err)
		}
		prog.Close()
		outs[i] = out
	}
	for name, b := range outs[0] {
		hb, ok := outs[1][name]
		if !ok {
			t.Fatalf("hand schedule missing output %s", name)
		}
		if eq, msg := b.Equal(hb, 0); !eq {
			t.Errorf("output %s: auto differs from hand: %s", name, msg)
		}
	}
}

// TestAutoCompileStats pins the provenance: an auto compile reports
// AutoScheduled with search effort, a hand compile does not.
func TestAutoCompileStats(t *testing.T) {
	for _, auto := range []bool{true, false} {
		pl, _, params := compileAutoApp(t, "harris", auto)
		prog, err := pl.Bind(params, engine.ExecOptions{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		st := prog.Stats()
		prog.Close()
		if st.AutoScheduled != auto {
			t.Errorf("auto=%v: AutoScheduled=%v", auto, st.AutoScheduled)
		}
		if auto && (st.SearchStates <= 0 || st.ScheduleModelCost <= 0) {
			t.Errorf("auto compile lost search stats: states=%d cost=%g", st.SearchStates, st.ScheduleModelCost)
		}
	}
}
