package service

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/schedule"
)

// TestServeSmoke is the `make serve-smoke` target: an in-process server
// fired through the whole happy/unhappy surface — cold and warm requests,
// overload, an oversized body, /healthz, /metrics and the snapshot
// stream — as one quick end-to-end gate.
func TestServeSmoke(t *testing.T) {
	svc := New(Config{
		MaxInFlight:  1,
		MaxQueue:     -1, // no queue: saturation answers 429 immediately
		MaxBodyBytes: 1 << 12,
	})
	defer svc.Close(context.Background())
	gate := make(chan struct{})
	blocking := make(chan struct{}, 1)
	svc.beforeRun = func(r *RunRequest) {
		if r.Seed == 999 { // the overload probe's designated holder
			blocking <- struct{}{}
			<-gate
		}
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Liveness before any work.
	var h Health
	if code := getJSON(t, srv.URL+"/healthz", &h); code != 200 || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}

	// Cold then warm.
	code, _, m := post(t, srv.URL, &RunRequest{Spec: testSpec()})
	if code != 200 || m["cached"] != false {
		t.Fatalf("cold = %d %v", code, m["error"])
	}
	code, _, m = post(t, srv.URL, &RunRequest{Spec: testSpec()})
	if code != 200 || m["cached"] != true {
		t.Fatalf("warm = %d %v", code, m["error"])
	}

	// Oversized body: 4 KiB limit, ~2k floats of explicit input.
	big := &RunRequest{Spec: testSpec(), Inputs: map[string][]float32{"I": make([]float32, 2048)}}
	if code, _, _ := post(t, srv.URL, big); code != 413 {
		t.Fatalf("oversized body = %d, want 413", code)
	}

	// Overload: one request holds the single slot, the next bounces.
	holder := make(chan int, 1)
	go func() {
		code, _, _ := post(t, srv.URL, &RunRequest{Spec: testSpec(), Seed: 999})
		holder <- code
	}()
	<-blocking
	code, hdr, _ := post(t, srv.URL, &RunRequest{Spec: testSpec()})
	if code != 429 || hdr.Get("Retry-After") == "" {
		t.Fatalf("overload = %d (Retry-After %q), want 429 with Retry-After", code, hdr.Get("Retry-After"))
	}
	close(gate)
	if code := <-holder; code != 200 {
		t.Fatalf("holder = %d, want 200", code)
	}

	// Metrics: counters moved and the merged snapshot saw real runs.
	var met Metrics
	if code := getJSON(t, srv.URL+"/metrics", &met); code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	if met.Requests < 4 || met.CacheHits < 1 || met.CacheMisses < 1 {
		t.Fatalf("metrics counters off: %+v", met)
	}
	if met.Rejected429 != 1 {
		t.Fatalf("rejected_429 = %d, want 1", met.Rejected429)
	}
	if len(met.Programs) == 0 || met.Merged.Runs == 0 || !met.Merged.Enabled {
		t.Fatalf("metrics snapshots empty: programs=%d merged.runs=%d", len(met.Programs), met.Merged.Runs)
	}

	// Tier attribution per program: every piece is either on a generated
	// kernel or counted under the reason it is not (this binary links no
	// kernel package, so eligible pieces read "no kernel for key").
	for _, pm := range met.Programs {
		pieces, gen := 0, 0
		for _, sm := range pm.Stages {
			pieces += sm.Gen + sm.RowVM + sm.Scalar
			gen += sm.Gen
		}
		if m := pm.GenMisses; pieces == 0 || gen+m.Total() != pieces {
			t.Fatalf("%s: %d pieces, %d on generated kernels, gen_misses %+v do not add up", pm.Pipeline, pieces, gen, m)
		}
	}
	// Snapshot stream: at least one obs.Snapshot JSON line arrives.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/metrics?stream=20ms", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("stream content type = %q", ct)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(line, &snap); err != nil {
		t.Fatalf("stream line %q: %v", line, err)
	}
	if snap.Runs == 0 {
		t.Fatal("streamed snapshot has no runs")
	}
	cancel()

	// Bad stream interval.
	if code := func() int {
		resp, err := http.Get(srv.URL + "/metrics?stream=bogus")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}(); code != 400 {
		t.Fatalf("bad stream interval = %d, want 400", code)
	}
}

// warmSpec is big enough that one run costs real time (~a millisecond),
// so per-request service overhead is measured against realistic work.
func warmSpec() *difftest.PipelineSpec {
	return &difftest.PipelineSpec{
		Seed: 11, Rank: 2, N: 256,
		Stages: []difftest.StageSpec{
			{Kind: difftest.KindStencil2D, P: -1},
			{Kind: difftest.KindStencil3, P: 0, Axis: 1},
			{Kind: difftest.KindCopy, P: 1},
		},
	}
}

// TestWarmLatencyParity guards the acceptance bound: warm-cache requests
// through the full service path must stay close to the direct
// executor loop on the same program. The benchmarks
// below measure the precise ratio; this test only catches gross
// regressions (2x) so it stays robust on noisy CI machines.
func TestWarmLatencyParity(t *testing.T) {
	svc := New(Config{})
	defer svc.Close(context.Background())
	ctx := context.Background()
	req := &RunRequest{Spec: warmSpec(), Output: OutputNone}
	if _, err := svc.Do(ctx, req); err != nil {
		t.Fatal(err)
	}

	// Direct executor loop on an identical, separately compiled program.
	rb, err := warmSpec().Build(false)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compileDirect(rb.Graph.Builder, rb.LiveOuts, rb.Params)
	if err != nil {
		t.Fatal(err)
	}
	defer prog.Close()
	if out, err := prog.Run(rb.Inputs); err != nil {
		t.Fatal(err)
	} else {
		prog.Executor().Recycle(out)
	}

	const iters = 30
	direct := time.Duration(1<<63 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		out, err := prog.Run(rb.Inputs)
		if err != nil {
			t.Fatal(err)
		}
		prog.Executor().Recycle(out)
		if d := time.Since(start); d < direct {
			direct = d
		}
	}
	service := time.Duration(1<<63 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := svc.Do(ctx, req); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); d < service {
			service = d
		}
	}
	t.Logf("warm latency: direct %v, service %v (x%.3f)", direct, service,
		float64(service)/float64(direct))
	if service > 2*direct+time.Millisecond {
		t.Errorf("service warm latency %v vs direct %v: overhead too high", service, direct)
	}
}

// BenchmarkWarmRequest measures the full warm-cache service path
// (admission, cache hit, memoized inputs, run, recycle); compare with
// BenchmarkDirectExecutor for the acceptance criterion's within-10%
// bound.
func BenchmarkWarmRequest(b *testing.B) {
	svc := New(Config{})
	defer svc.Close(context.Background())
	ctx := context.Background()
	req := &RunRequest{Spec: warmSpec(), Output: OutputNone}
	if _, err := svc.Do(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// compileDirect compiles with the same engine options the service uses,
// but with no serving layer around the executor.
func compileDirect(b *dsl.Builder, liveOuts []string, params map[string]int64) (*engine.Program, error) {
	pl, err := core.Compile(b, liveOuts, core.Options{
		Estimates:     params,
		Schedule:      schedule.DefaultOptions(),
		AllowUnproven: true,
	})
	if err != nil {
		return nil, err
	}
	return pl.Bind(params, engine.ExecOptions{Fast: true, ReuseBuffers: true, Metrics: true})
}

// BenchmarkDirectExecutor is the baseline: the same pipeline on a bare
// persistent executor with no serving layer.
func BenchmarkDirectExecutor(b *testing.B) {
	rb, err := warmSpec().Build(false)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compileDirect(rb.Graph.Builder, rb.LiveOuts, rb.Params)
	if err != nil {
		b.Fatal(err)
	}
	defer prog.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := prog.Run(rb.Inputs)
		if err != nil {
			b.Fatal(err)
		}
		prog.Executor().Recycle(out)
	}
}
