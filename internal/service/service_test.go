package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/difftest"
)

// testSpec is a small deterministic pipeline: a 3-tap stencil feeding a
// copy stage that carries the fault-injection hook (Perturb scales its
// definition by 1.001 when a perturbed build is requested).
func testSpec() *difftest.PipelineSpec {
	return &difftest.PipelineSpec{
		Seed: 5, Rank: 1, N: 64,
		Stages: []difftest.StageSpec{
			{Kind: difftest.KindStencil3, P: -1},
			{Kind: difftest.KindCopy, P: 0, Perturb: true},
		},
	}
}

// post sends req to the server's /run and decodes the response body.
func post(t *testing.T, url string, req *RunRequest) (int, http.Header, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, body)
}

func postRaw(t *testing.T, url string, body []byte) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, resp.Header, m
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestErrorPathsKeepServing is the acceptance trio: a malformed request
// body, a malformed spec, and an unbound parameter each produce an HTTP
// error — and after every failure the same process still serves a correct
// response.
func TestErrorPathsKeepServing(t *testing.T) {
	svc := New(Config{})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	good := func(label string) {
		t.Helper()
		code, _, m := post(t, srv.URL, &RunRequest{Spec: testSpec()})
		if code != 200 {
			t.Fatalf("after %s: good request = %d (%v), want 200", label, code, m["error"])
		}
		outs, ok := m["outputs"].(map[string]any)
		if !ok || len(outs) == 0 {
			t.Fatalf("after %s: good request returned no outputs: %v", label, m)
		}
	}
	good("start")

	// Not JSON at all.
	if code, _, _ := postRaw(t, srv.URL, []byte("not json{")); code != 400 {
		t.Fatalf("garbage body = %d, want 400", code)
	}
	good("garbage body")

	// Unknown field (strict decoding).
	if code, _, _ := postRaw(t, srv.URL, []byte(`{"nope": 1}`)); code != 400 {
		t.Fatalf("unknown field = %d, want 400", code)
	}

	// Neither app nor spec / both at once.
	if code, _, _ := post(t, srv.URL, &RunRequest{}); code != 400 {
		t.Fatal("empty request must 400")
	}
	if code, _, _ := post(t, srv.URL, &RunRequest{App: "harris", Spec: testSpec()}); code != 400 {
		t.Fatal("app+spec must 400")
	}

	// Malformed spec: no stages.
	code, _, m := post(t, srv.URL, &RunRequest{Spec: &difftest.PipelineSpec{Seed: 1}})
	if code != 400 || !strings.Contains(fmt.Sprint(m["error"]), "empty spec") {
		t.Fatalf("empty spec = %d %v, want 400 mentioning empty spec", code, m)
	}
	good("malformed spec")

	// Unknown app.
	if code, _, _ := post(t, srv.URL, &RunRequest{App: "no-such-app"}); code != 404 {
		t.Fatal("unknown app must 404")
	}

	// Unbound parameter: a real app with no parameter binding.
	name := apps.Names()[0]
	code, _, m = post(t, srv.URL, &RunRequest{App: name})
	if code != 400 {
		t.Fatalf("unbound params for %s = %d (%v), want 400", name, code, m["error"])
	}
	good("unbound parameter")

	// Bad explicit input name and shape.
	if code, _, _ = post(t, srv.URL, &RunRequest{Spec: testSpec(), Inputs: map[string][]float32{"bogus": {1}}}); code != 400 {
		t.Fatal("unknown input image must 400")
	}
	if code, _, _ = post(t, srv.URL, &RunRequest{Spec: testSpec(), Inputs: map[string][]float32{"I": {1, 2, 3}}}); code != 400 {
		t.Fatal("short input data must 400")
	}
	good("bad inputs")

	var h Health
	if code := getJSON(t, srv.URL+"/healthz", &h); code != 200 || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v, want 200 ok", code, h)
	}
}

// TestFaultInjectionPerturb is the service-level fault-injection check:
// a difftest.Perturb-poisoned kernel under verification returns HTTP 500,
// and the same process keeps serving correct (and verifiable) responses.
func TestFaultInjectionPerturb(t *testing.T) {
	svc := New(Config{})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sp := testSpec()

	// Poisoned request: the served program is built from the perturbed
	// spec, the reference from the clean one — verification must fail.
	code, _, m := post(t, srv.URL, &RunRequest{Spec: sp, Perturb: true, Verify: true})
	if code != 500 || !strings.Contains(fmt.Sprint(m["error"]), "verification failed") {
		t.Fatalf("perturbed+verify = %d %v, want 500 verification failure", code, m)
	}

	// The process keeps serving: the clean program verifies...
	code, _, m = post(t, srv.URL, &RunRequest{Spec: sp, Verify: true})
	if code != 200 || m["verified"] != true {
		t.Fatalf("clean+verify = %d %v, want 200 verified", code, m)
	}
	cleanSum := outputChecksums(t, m)

	// ...and the perturbed program without verification actually produces
	// different data (the poison is real, not a verification artifact).
	code, _, m = post(t, srv.URL, &RunRequest{Spec: sp, Perturb: true})
	if code != 200 {
		t.Fatalf("perturbed without verify = %d %v, want 200", code, m)
	}
	if sums := outputChecksums(t, m); sums == cleanSum {
		t.Fatalf("perturbed and clean outputs have identical checksums %s", sums)
	}

	// Error accounting: exactly the one poisoned request failed.
	met := svc.Metrics()
	if met.Errors != 1 {
		t.Fatalf("errors = %d, want 1", met.Errors)
	}
}

func outputChecksums(t *testing.T, m map[string]any) string {
	t.Helper()
	outs, ok := m["outputs"].(map[string]any)
	if !ok || len(outs) == 0 {
		t.Fatalf("response has no outputs: %v", m)
	}
	b, _ := json.Marshal(outs)
	return string(b)
}

// TestConcurrentColdWarmShutdown exercises the singleflight compile path
// (N concurrent cold requests, one compile), warm hits, and a graceful
// shutdown racing live traffic. Run under -race via the Makefile's race
// target.
func TestConcurrentColdWarmShutdown(t *testing.T) {
	svc := New(Config{})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const workers = 8
	const perWorker = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				code, _, m := post(t, srv.URL, &RunRequest{Spec: testSpec()})
				if code != 200 {
					errs <- fmt.Errorf("request = %d (%v)", code, m["error"])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	met := svc.Metrics()
	if met.CacheMisses != 1 {
		t.Errorf("cache misses = %d, want 1 (singleflight dedup)", met.CacheMisses)
	}
	if want := int64(workers*perWorker - 1); met.CacheHits != want {
		t.Errorf("cache hits = %d, want %d", met.CacheHits, want)
	}

	// Shutdown racing live traffic: every request either succeeds or is
	// refused with 503, never anything else, and Close drains cleanly.
	spec2 := testSpec()
	spec2.Seed = 6
	var wg2 sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			for i := 0; i < perWorker; i++ {
				code, _, m := post(t, srv.URL, &RunRequest{Spec: spec2})
				if code != 200 && code != 503 {
					errs := fmt.Sprintf("during shutdown: code %d (%v)", code, m["error"])
					t.Error(errs)
					return
				}
			}
		}()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg2.Wait()

	// Fully drained: new work is refused, health reports draining.
	if code, _, _ := post(t, srv.URL, &RunRequest{Spec: testSpec()}); code != 503 {
		t.Errorf("request after Close = %d, want 503", code)
	}
	var h Health
	if code := getJSON(t, srv.URL+"/healthz", &h); code != 503 || h.Status != "draining" {
		t.Errorf("healthz after Close = %d %+v, want 503 draining", code, h)
	}
	if h.InFlight != 0 || h.Queued != 0 {
		t.Errorf("after drain: in_flight=%d queued=%d, want 0/0", h.InFlight, h.Queued)
	}
}

// TestAdmissionControl pins the overload ladder with one execution slot:
// slot busy -> second request queues -> third bounces 429 (queue full) ->
// the queued one times out with 503; both carry Retry-After. The blocked
// run then completes and the service is healthy again.
func TestAdmissionControl(t *testing.T) {
	svc := New(Config{
		MaxInFlight:  1,
		MaxQueue:     1,
		QueueTimeout: 150 * time.Millisecond,
	})
	defer svc.Close(context.Background())

	// Warm the program with no hook installed.
	if _, err := svc.Do(context.Background(), &RunRequest{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}

	// From here, every run blocks until gate is closed.
	gate := make(chan struct{})
	svc.beforeRun = func(*RunRequest) { <-gate }
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	type result struct {
		code int
		hdr  http.Header
	}
	fire := func() chan result {
		ch := make(chan result, 1)
		go func() {
			code, hdr, _ := post(t, srv.URL, &RunRequest{Spec: testSpec()})
			ch <- result{code, hdr}
		}()
		return ch
	}

	holder := fire() // acquires the slot, blocks in beforeRun
	waitFor(t, "slot held", func() bool { return svc.inflight.Load() == 1 })
	queued := fire() // sits in the queue
	waitFor(t, "request queued", func() bool { return svc.queued.Load() == 1 })

	// Queue is full now: immediate 429 with Retry-After.
	code, hdr, _ := post(t, srv.URL, &RunRequest{Spec: testSpec()})
	if code != 429 {
		t.Fatalf("over-capacity request = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// The queued request gives up after QueueTimeout.
	r := <-queued
	if r.code != 503 {
		t.Fatalf("queued request = %d, want 503 after queue timeout", r.code)
	}
	if r.hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After header")
	}

	// Release the slot: the holder completes, and the service serves again.
	close(gate)
	if r := <-holder; r.code != 200 {
		t.Fatalf("holder = %d, want 200", r.code)
	}
	if code, _, m := post(t, srv.URL, &RunRequest{Spec: testSpec()}); code != 200 {
		t.Fatalf("after overload: %d (%v), want 200", code, m["error"])
	}

	met := svc.Metrics()
	if met.Rejected429 != 1 || met.Rejected503 != 1 {
		t.Errorf("rejections 429=%d 503=%d, want 1/1", met.Rejected429, met.Rejected503)
	}
}

// TestRequestDeadline: a request whose run exceeds its deadline answers
// 503 while the abandoned run finishes in the background; its slot frees
// and the next request succeeds.
func TestRequestDeadline(t *testing.T) {
	svc := New(Config{MaxInFlight: 1, RequestTimeout: 50 * time.Millisecond})
	defer svc.Close(context.Background())

	if _, err := svc.Do(context.Background(), &RunRequest{Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	svc.beforeRun = func(*RunRequest) { <-block }

	_, err := svc.Do(context.Background(), &RunRequest{Spec: testSpec()})
	se, ok := err.(*Error)
	if !ok || se.Status != 503 {
		t.Fatalf("deadline-exceeded run: err = %v, want *Error 503", err)
	}
	if svc.slows.Load() != 1 {
		t.Errorf("timeouts = %d, want 1", svc.slows.Load())
	}

	// Unblock the abandoned run (the hook stays installed but no longer
	// blocks on the closed channel); once it drains, the slot frees.
	close(block)
	waitFor(t, "slot released", func() bool { return svc.inflight.Load() == 0 })
	if _, err := svc.Do(context.Background(), &RunRequest{Spec: testSpec()}); err != nil {
		t.Fatalf("after abandoned run: %v", err)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAppRequest runs a real registered app end-to-end over HTTP with its
// test-size parameters, cold then warm.
func TestAppRequest(t *testing.T) {
	svc := New(Config{})
	defer svc.Close(context.Background())
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var infos []struct {
		Name       string           `json:"name"`
		TestParams map[string]int64 `json:"test_params"`
	}
	if code := getJSON(t, srv.URL+"/apps", &infos); code != 200 || len(infos) == 0 {
		t.Fatalf("/apps = %d with %d entries", code, len(infos))
	}
	app := infos[0]
	req := &RunRequest{App: app.Name, Params: app.TestParams}
	code, _, m := post(t, srv.URL, req)
	if code != 200 || m["cached"] != false {
		t.Fatalf("cold app request = %d %v, want 200 uncached", code, m["error"])
	}
	cold := outputChecksums(t, m)
	code, _, m = post(t, srv.URL, req)
	if code != 200 || m["cached"] != true {
		t.Fatalf("warm app request = %d, want 200 cached", code)
	}
	if warm := outputChecksums(t, m); warm != cold {
		t.Fatalf("warm checksums %s != cold %s", warm, cold)
	}
}

// TestLRUEviction: with a 1-program cache, a second pipeline evicts the
// first; re-requesting the first recompiles, and nothing crashes or
// leaks refs while the evicted program has in-flight users.
func TestLRUEviction(t *testing.T) {
	svc := New(Config{MaxPrograms: 1})
	defer svc.Close(context.Background())

	a, b := testSpec(), testSpec()
	b.Seed = 7
	ctx := context.Background()
	if _, err := svc.Do(ctx, &RunRequest{Spec: a}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Do(ctx, &RunRequest{Spec: b}); err != nil {
		t.Fatal(err)
	}
	met := svc.Metrics()
	if met.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", met.Evictions)
	}
	resp, err := svc.Do(ctx, &RunRequest{Spec: a})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("evicted program reported as cached")
	}
}

// TestFleetServiceEvictionUnderLoad: refcounted LRU eviction while many
// goroutines hammer the service across more programs than the cache holds.
// With MaxPrograms below the working set every other request churns the
// cache, so evictions constantly race in-flight runs of the evicted
// programs — the refcount must keep each program alive until its last
// user finishes, and every response must stay correct (run with -race).
func TestFleetServiceEvictionUnderLoad(t *testing.T) {
	const (
		programs  = 4
		clients   = 8
		perClient = 8
	)
	svc := New(Config{MaxPrograms: 2, MaxInFlight: clients, MaxQueue: -1})
	defer svc.Close(context.Background())

	specs := make([]*difftest.PipelineSpec, programs)
	want := make([]string, programs)
	ctx := context.Background()
	for i := range specs {
		specs[i] = testSpec()
		specs[i].Seed = int64(100 + i)
		resp, err := svc.Do(ctx, &RunRequest{Spec: specs[i]})
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range resp.Outputs {
			want[i] = o.Checksum
		}
		if want[i] == "" {
			t.Fatalf("spec %d: no output checksum", i)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := (c + k) % programs
				resp, err := svc.Do(ctx, &RunRequest{Spec: specs[i]})
				if err != nil {
					errs <- fmt.Errorf("client %d spec %d: %v", c, i, err)
					return
				}
				for _, o := range resp.Outputs {
					if o.Checksum != want[i] {
						errs <- fmt.Errorf("client %d spec %d: checksum %s, want %s", c, i, o.Checksum, want[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	met := svc.Metrics()
	if met.Evictions == 0 {
		t.Fatal("working set of 4 programs in a 2-slot cache produced no evictions")
	}
	// Eviction runs at insert time, so over-capacity entries parked by
	// referenced-at-eviction races linger until the next miss; one more
	// fresh compile must bring the cache back within bounds.
	fresh := testSpec()
	fresh.Seed = 999
	if _, err := svc.Do(ctx, &RunRequest{Spec: fresh}); err != nil {
		t.Fatal(err)
	}
	if got := svc.cache.len(); got > 2 {
		t.Fatalf("cache holds %d entries after idle insert, capacity 2", got)
	}
}

// TestFleetAdmissionReleasedBeforeReply: a finished request has freed its
// admission slot by the time its caller holds the answer, a panicked run's
// 500 included. One caller, one slot and no queue: every back-to-back
// request must be admitted, through Do and through DoStream, or the
// caller's next request finds its own old slot taken and is refused. No
// output payload keeps the caller's own work after the run short, and
// -race widens the window.
func TestFleetAdmissionReleasedBeforeReply(t *testing.T) {
	svc := New(Config{MaxInFlight: 1, MaxQueue: -1})
	defer svc.Close(context.Background())
	const panicSeed = 13
	svc.beforeRun = func(r *RunRequest) {
		if r.Seed == panicSeed {
			panic("probe")
		}
	}
	ctx := context.Background()
	spec := testSpec()
	refused := 0
	for i := 0; i < 800; i++ {
		req := &RunRequest{Spec: spec, Output: OutputNone}
		if i%4 == 3 {
			req.Seed = panicSeed
		}
		var err error
		if i < 600 {
			_, err = svc.Do(ctx, req)
		} else {
			req.Frames = 1
			err = svc.DoStream(ctx, req, func(*FrameResult) error { return nil })
		}
		var e *Error
		switch {
		case errors.As(err, &e) && e.Status == 429:
			refused++
		case req.Seed == panicSeed && (e == nil || e.Status != 500):
			t.Fatalf("request %d: a panicked run answered %v, want a 500", i, err)
		case req.Seed != panicSeed && err != nil:
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if refused > 0 {
		t.Errorf("a lone caller was refused %d of 800 requests (600 runs, then 200 streams)", refused)
	}
}
