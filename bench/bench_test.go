package main

import (
	"io"
	"testing"
)

// TestSmoke runs all five workloads at test size, untraced and traced,
// against a server built into a temporary directory, and checks that each
// run is correct and emits exactly the metric names BENCHMARK.json lists
// for its mode.
func TestSmoke(t *testing.T) {
	man, err := readManifest("..")
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(man.Workloads), len(workloadDefs))
	}
	bin, buildS, err := buildServer("..", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, def := range workloadDefs {
		if man.Workloads[i].Name != def.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, man.Workloads[i].Name, def.name)
		}
		for _, trace := range []bool{false, true} {
			def, trace := def, trace
			name := def.name + "/timed"
			defs := man.EndToEnd
			if trace {
				name, defs = def.name+"/traced", man.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // set-up dominates at this size and none of it is timing-sensitive
				e := &env{root: "..", tiny: true, seed: 5, serverBin: bin, buildS: buildS}
				r, err := runWorkload(e, man, def, 0.4, trace, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				if len(r.Metrics) != len(defs) {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(r.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := r.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: present=%v unit=%q, want unit %q", d.Name, ok, m.Unit, d.Unit)
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, m.Value)
					}
				}
			})
		}
	}
}

// TestSelfTimes pins the self-time rule: a span's self time is its length
// minus what its children cover.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.rows = []string{"row"}
	tr.spans = []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
		{Name: "a.inner", Start: 15, End: 25, Parent: 1},
	}
	want := map[string]int64{"op": 20, "a": 20, "b": 50, "a.inner": 10}
	for _, lt := range tr.selfTimes() {
		if int64(lt.Self) != want[lt.Name] {
			t.Errorf("self time of %s = %d, want %d", lt.Name, lt.Self, want[lt.Name])
		}
	}
}
