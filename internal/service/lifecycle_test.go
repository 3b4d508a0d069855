package service

// The request lifecycle Do and DoStream share: the program-cache key's
// aliases, a run abandoned at its deadline keeping its program, and the
// refusals both entry points give alike. `make fleet-race` runs the
// TestFleet tests race-checked on a multi-worker fleet.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// TestCacheKeyAliases: requests that run the same program share one cache
// entry. A spec ignores Params, and "threads" 0 (the server default), the
// machine's core count and anything above it all run GOMAXPROCS workers;
// a negative thread count is refused before it can take a key of its own.
func TestCacheKeyAliases(t *testing.T) {
	svc := New(Config{})
	defer svc.Close(context.Background())
	ctx := context.Background()

	first, err := svc.Do(ctx, &RunRequest{Spec: testSpec()})
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []*RunRequest{
		{Spec: testSpec(), Params: map[string]int64{"junk": 1}},
		{Spec: testSpec(), Threads: 64},
		{Spec: testSpec(), Threads: runtime.GOMAXPROCS(0)},
	} {
		resp, err := svc.Do(ctx, req)
		if err != nil {
			t.Fatalf("params %v threads %d: %v", req.Params, req.Threads, err)
		}
		if !resp.Cached || resp.Key != first.Key {
			t.Errorf("params %v threads %d: cached=%v key %s, want the first request's program %s",
				req.Params, req.Threads, resp.Cached, resp.Key, first.Key)
		}
	}
	_, err = svc.Do(ctx, &RunRequest{Spec: testSpec(), Threads: -3})
	var e *Error
	if !errors.As(err, &e) || e.Status != 400 {
		t.Errorf("threads -3: err = %v, want a 400", err)
	}
	if c := svc.Metrics().Compiles; c != 1 {
		t.Errorf("compiles = %d, want 1", c)
	}
}

// TestFleetAbandonedRunKeepsProgram: a Do abandoned at its deadline leaves
// its run holding the program's cache reference. With a one-program cache,
// a miss for another spec must neither evict the held program nor wait for
// its run, and the held run must complete on a live program.
func TestFleetAbandonedRunKeepsProgram(t *testing.T) {
	svc := New(Config{MaxPrograms: 1, MaxInFlight: 4})
	defer svc.Close(context.Background())
	ctx := context.Background()

	held, other := testSpec(), testSpec()
	other.Seed = 7
	if _, err := svc.Do(ctx, &RunRequest{Spec: held}); err != nil {
		t.Fatal(err)
	}
	_, entries := svc.cache.stats()
	prog := entries[0].res.prog

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	svc.beforeRun = func(r *RunRequest) {
		if r.Spec.Seed == held.Seed {
			entered <- struct{}{}
			<-gate
		}
	}
	dctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	_, err := svc.Do(dctx, &RunRequest{Spec: held})
	var e *Error
	if !errors.As(err, &e) || e.Status != 503 {
		t.Fatalf("held request: err = %v, want a 503 at its deadline", err)
	}
	<-entered

	missed := make(chan error, 1)
	go func() {
		_, err := svc.Do(ctx, &RunRequest{Spec: other})
		missed <- err
	}()
	select {
	case err := <-missed:
		if err != nil {
			t.Fatalf("miss: %v", err)
		}
	case <-time.After(30 * time.Second):
		close(gate)
		t.Fatal("the miss waited for the held run")
	}
	if ev := svc.Metrics().Evictions; ev != 0 {
		t.Errorf("evictions = %d while the abandoned run holds its program, want 0", ev)
	}

	close(gate)
	waitFor(t, "held run finished", func() bool { return svc.inflight.Load() == 0 })
	if runs := prog.Executor().Snapshot().Runs; runs != 2 {
		t.Errorf("held program completed %d runs, want 2: the abandoned run did not run on a live program", runs)
	}

	// Released, the held program is an ordinary eviction victim again.
	third := testSpec()
	third.Seed = 8
	if _, err := svc.Do(ctx, &RunRequest{Spec: third}); err != nil {
		t.Fatal(err)
	}
	if n := svc.cache.len(); n != 1 {
		t.Errorf("cache holds %d programs after the release, capacity 1", n)
	}
}

// TestFleetRefusalsMatch: the refusals the shared lifecycle makes answer
// the same status and Retry-After through Do and through DoStream.
func TestFleetRefusalsMatch(t *testing.T) {
	ctx := context.Background()
	// warm compiles the spec, then makes every later run wait for the
	// returned gate.
	warm := func(t *testing.T, svc *Service) chan struct{} {
		if _, err := svc.Do(ctx, &RunRequest{Spec: testSpec()}); err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		svc.beforeRun = func(*RunRequest) { <-gate }
		return gate
	}
	cases := []struct {
		name    string
		cfg     Config
		req     RunRequest
		timeout time.Duration
		// prep readies svc for the refusal and returns what undoes it.
		prep   func(t *testing.T, svc *Service) func()
		status int
		retry  int
	}{
		{name: "validate", req: RunRequest{}, status: 400},
		{name: "specs disabled", cfg: Config{DisableSpecs: true}, req: RunRequest{Spec: testSpec()}, status: 403},
		{
			name: "draining", req: RunRequest{Spec: testSpec()}, status: 503, retry: 1,
			prep: func(t *testing.T, svc *Service) func() {
				if err := svc.Close(ctx); err != nil {
					t.Fatal(err)
				}
				return func() {}
			},
		},
		{
			name: "capacity", cfg: Config{MaxInFlight: 1, MaxQueue: -1}, req: RunRequest{Spec: testSpec()}, status: 429, retry: 1,
			prep: func(t *testing.T, svc *Service) func() {
				gate := warm(t, svc)
				done := make(chan struct{})
				go func() {
					defer close(done)
					svc.Do(ctx, &RunRequest{Spec: testSpec()})
				}()
				waitFor(t, "slot held", func() bool { return svc.inflight.Load() == 1 })
				return func() { close(gate); <-done }
			},
		},
		{
			name: "deadline", req: RunRequest{Spec: testSpec()}, timeout: 100 * time.Millisecond, status: 503, retry: 2,
			prep: func(t *testing.T, svc *Service) func() {
				gate := warm(t, svc)
				return func() {
					close(gate)
					waitFor(t, "abandoned run finished", func() bool { return svc.inflight.Load() == 0 })
				}
			},
		},
	}
	entries := []struct {
		name string
		call func(context.Context, *Service, RunRequest) error
	}{
		{"Do", func(ctx context.Context, svc *Service, req RunRequest) error {
			_, err := svc.Do(ctx, &req)
			return err
		}},
		{"DoStream", func(ctx context.Context, svc *Service, req RunRequest) error {
			req.Frames = 2
			return svc.DoStream(ctx, &req, func(*FrameResult) error { return nil })
		}},
	}
	for _, tc := range cases {
		for _, entry := range entries {
			t.Run(tc.name+"/"+entry.name, func(t *testing.T) {
				svc := New(tc.cfg)
				defer svc.Close(ctx)
				if tc.prep != nil {
					defer tc.prep(t, svc)()
				}
				rctx := ctx
				if tc.timeout > 0 {
					var cancel context.CancelFunc
					rctx, cancel = context.WithTimeout(ctx, tc.timeout)
					defer cancel()
				}
				err := entry.call(rctx, svc, tc.req)
				var e *Error
				if !errors.As(err, &e) {
					t.Fatalf("err = %v, want an *Error", err)
				}
				if e.Status != tc.status || e.RetryAfterSec != tc.retry {
					t.Errorf("status %d Retry-After %d (%s), want %d and %d", e.Status, e.RetryAfterSec, e.Msg, tc.status, tc.retry)
				}
			})
		}
	}
}
