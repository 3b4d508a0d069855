package service

// Seed inputs: a cold app request synthesizes them beside its compile, a
// spec request takes the ones its build made, and an Integer spec keeps
// its uint8 pattern. `make fleet-race` runs the TestColdInputs tests
// race-checked.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/engine"
)

// libraryChecksums compiles a pipeline in the configuration svc serves req
// in, runs it on inputs and fingerprints the live-outs as a response does.
func libraryChecksums(t *testing.T, svc *Service, req *RunRequest, b *dsl.Builder, outs []string,
	params map[string]int64, inputs map[string]*engine.Buffer) map[string]string {
	t.Helper()
	co, eo := svc.options(req)
	co.Estimates = params
	pl, err := core.Compile(b, outs, co)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pl.Bind(params, eo)
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	out, err := prog.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]string, len(outs))
	for _, lo := range outs {
		sums[lo] = fmt.Sprintf("%016x", difftest.Checksum(out[lo]))
	}
	return sums
}

func responseSums(outs map[string]OutputResult) map[string]string {
	sums := make(map[string]string, len(outs))
	for lo, o := range outs {
		sums[lo] = o.Checksum
	}
	return sums
}

// TestColdInputsMatchWarmAndLibrary: the inputs a cold request synthesized
// beside its compile give the checksums of the warm repeat, which reads
// them from the memo, and of a library run on the app's own inputs.
func TestColdInputsMatchWarmAndLibrary(t *testing.T) {
	ctx := context.Background()
	svc := New(Config{})
	defer svc.Close(ctx)
	for _, app := range apps.All() {
		req := &RunRequest{App: app.Name, Params: app.TestParams, Seed: 7}
		cold, err := svc.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s: cold: %v", app.Name, err)
		}
		warm, err := svc.Do(ctx, req)
		if err != nil {
			t.Fatalf("%s: warm: %v", app.Name, err)
		}
		if cold.Cached || !warm.Cached {
			t.Fatalf("%s: cached %v then %v, want false then true", app.Name, cold.Cached, warm.Cached)
		}
		ib, _ := app.Build()
		in, err := app.Inputs(ib, app.TestParams, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, outs := app.Build()
		lib := libraryChecksums(t, svc, req, b, outs, app.TestParams, in)
		if c, w := responseSums(cold.Outputs), responseSums(warm.Outputs); !maps.Equal(c, w) || !maps.Equal(c, lib) {
			t.Errorf("%s: cold %v, warm %v, library %v", app.Name, c, w, lib)
		}
	}
}

// TestColdInputsCompileFailure: a compile that fails while the inputs are
// still being synthesized keeps its own status, even when the synthesis
// panics, and the request waits for the synthesis: nothing it started
// outlives it.
func TestColdInputsCompileFailure(t *testing.T) {
	ctx := context.Background()
	svc := New(Config{})
	defer svc.Close(ctx)
	var started, finished atomic.Int32
	svc.beforeSynth = func(*RunRequest) {
		started.Add(1)
		defer finished.Add(1)
		time.Sleep(20 * time.Millisecond)
		panic("synthesis fault")
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		// harris declares R and C; C is unbound.
		_, err := svc.Do(ctx, &RunRequest{App: "harris", Params: map[string]int64{"R": 64}})
		var e *Error
		if !errors.As(err, &e) || e.Status != 400 {
			t.Fatalf("unbound parameter: err = %v, want a 400", err)
		}
		if s, f := started.Load(), finished.Load(); s != int32(i+1) || f != s {
			t.Fatalf("request %d returned with %d syntheses started, %d finished", i, s, f)
		}
	}
	waitFor(t, "goroutines back to the baseline", func() bool { return runtime.NumGoroutine() <= base })
	if n := svc.Metrics().CompileErrors; n != 3 {
		t.Errorf("compile errors = %d, want 3", n)
	}
}

// TestColdInputsSynthesisPanic: a panic while synthesizing a cold
// request's inputs answers 500, as a compile panic does, and the next
// request for the now-cached program synthesizes its own and succeeds.
func TestColdInputsSynthesisPanic(t *testing.T) {
	ctx := context.Background()
	svc := New(Config{})
	defer svc.Close(ctx)
	var once atomic.Bool
	svc.beforeSynth = func(*RunRequest) {
		if !once.Swap(true) {
			panic("synthesis fault")
		}
	}
	req := &RunRequest{App: "unsharp", Params: map[string]int64{"R": 1, "C": 1}}
	_, err := svc.Do(ctx, req)
	var e *Error
	if !errors.As(err, &e) || e.Status != 500 {
		t.Fatalf("panicking synthesis: err = %v, want a 500", err)
	}
	resp, err := svc.Do(ctx, req)
	if err != nil || !resp.Cached {
		t.Fatalf("next request: %v (cached %v), want a cached 200", err, resp != nil && resp.Cached)
	}
	if m := svc.Metrics(); m.PanicsRecovered != 1 || m.Health.InFlight != 0 {
		t.Errorf("panics recovered %d, in flight %d; want 1 and 0", m.PanicsRecovered, m.Health.InFlight)
	}
}

// TestIntegerSpecsServed: an Integer spec is served on its uint8 pattern,
// widened: Verify passes, and the checksums equal a library run on the
// inputs the spec's build makes. Frames after the first refresh the
// inputs with the same uint8 pattern.
func TestIntegerSpecsServed(t *testing.T) {
	ctx := context.Background()
	svc := New(Config{})
	defer svc.Close(ctx)
	for seed := int64(1); seed <= 5; seed++ {
		spec := difftest.GenerateInteger(seed)
		resp, err := svc.Do(ctx, &RunRequest{Spec: &spec, Verify: true})
		if err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}
		rb, err := spec.Build(false)
		if err != nil {
			t.Fatal(err)
		}
		req := &RunRequest{Spec: &spec}
		in := servedInputs(maps.Clone(rb.Inputs))
		lib := libraryChecksums(t, svc, req, rb.Graph.Builder, rb.LiveOuts, rb.Params, in)
		if got := responseSums(resp.Outputs); !maps.Equal(got, lib) {
			t.Errorf("seed %d: served %v, library %v", seed, got, lib)
		}

		// Frame 1 refills input "I" (the only one) at the frame's seed.
		var frames []*FrameResult
		sreq := &RunRequest{Spec: &spec, Frames: 2}
		if err := svc.DoStream(ctx, sreq, func(fr *FrameResult) error {
			frames = append(frames, fr)
			return nil
		}); err != nil {
			t.Fatalf("seed %d: stream: %v", seed, err)
		}
		u8 := engine.NewBufferElem(rb.Inputs["I"].Box, engine.ElemU8)
		engine.FillPattern(u8, spec.Seed*1009+37)
		rb, _ = spec.Build(false)
		lib = libraryChecksums(t, svc, sreq, rb.Graph.Builder, rb.LiveOuts, rb.Params,
			map[string]*engine.Buffer{"I": engine.ConvertBuffer(u8, engine.ElemF32)})
		if got := responseSums(frames[1].Outputs); !maps.Equal(got, lib) {
			t.Errorf("seed %d frame 1: served %v, library %v", seed, got, lib)
		}
	}
}

// TestColdInputsPhases: /metrics times input resolution once per request
// and checksumming once per response that carries outputs, and reads no
// clock under DisableMetrics.
func TestColdInputsPhases(t *testing.T) {
	ctx := context.Background()
	for _, disable := range []bool{false, true} {
		svc := New(Config{DisableMetrics: disable})
		req := &RunRequest{App: "unsharp", Params: map[string]int64{"R": 1, "C": 1}}
		for _, output := range []string{OutputChecksum, OutputNone, OutputChecksum} {
			req.Output = output
			if _, err := svc.Do(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		ph := svc.Metrics().Phases
		want := [2]int64{3, 2}
		if disable {
			want = [2]int64{}
		}
		if got := [2]int64{ph.Inputs.Count, ph.Checksum.Count}; got != want {
			t.Errorf("DisableMetrics %v: inputs and checksum samples %v, want %v", disable, got, want)
		}
		if !disable && (ph.Inputs.Nanos <= 0 || ph.Checksum.Nanos <= 0) {
			t.Errorf("inputs %d ns, checksum %d ns; want both timed", ph.Inputs.Nanos, ph.Checksum.Nanos)
		}
		svc.Close(ctx)
	}
}
