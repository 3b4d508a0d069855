// Package service is the pipeline-as-a-service layer: it accepts pipeline
// execution requests (a registered app or an inline spec, plus a parameter
// binding and input data), resolves them through a compiled-program cache,
// and executes them on per-program persistent executors with buffer
// recycling — the serving-path embodiment of the paper's compile-once /
// run-many model.
//
// The request path is panic-free by construction: DSL construction and
// compiler panics are converted to errors at the core.Compile boundary,
// and the service adds its own recover barriers around request handling
// and kernel execution, so a hostile specification costs one HTTP 500,
// never the process. Admission is bounded (an in-flight limit plus a
// short queue; overload answers 429/503 with Retry-After), every request
// runs under a deadline, and Close drains in-flight work before closing
// the cached executors.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/affine"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/dsl"
	"repro/internal/engine"
	"repro/internal/obs"
)

// defaultSeed matches the harness's default synthetic-input seed.
const defaultSeed = 42

// Config tunes a Service. The zero value is usable: every field has a
// serving-appropriate default.
type Config struct {
	// MaxInFlight bounds concurrently executing requests (0 =
	// GOMAXPROCS). Executors run concurrent requests through the shared
	// process-wide worker fleet, so this bounds memory (live run contexts
	// and buffers) rather than CPU oversubscription.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an execution slot (0 = default
	// 64, negative = no queue: reject immediately when saturated).
	MaxQueue int
	// QueueTimeout bounds the wait for a slot (default 5s); expiry
	// answers 503.
	QueueTimeout time.Duration
	// RequestTimeout is the per-request deadline, covering queueing,
	// compilation and execution (default 60s). The tighter of this and
	// the caller's context applies.
	RequestTimeout time.Duration
	// MaxPrograms caps the compiled-program cache; least-recently-used
	// idle programs are evicted and closed (default 32).
	MaxPrograms int
	// MaxBodyBytes caps /run request bodies (default 64 MiB).
	MaxBodyBytes int64
	// Threads is the default per-program worker count (0 = GOMAXPROCS);
	// requests may override it. Values above GOMAXPROCS are clamped — the
	// shared fleet never runs more workers than the machine has cores —
	// and resolved before the program-cache key is built.
	Threads int
	// AutoSchedule makes the cost-model auto-scheduler
	// (schedule.Options.Auto) the default for requests that do not pin a
	// schedule: requests with explicit Tiles keep the hand-specified
	// schedule, and a request's Auto field overrides this default either
	// way. polymage-serve sets it.
	AutoSchedule bool
	// DisableSpecs rejects inline-spec requests (403), leaving only the
	// registered apps callable.
	DisableSpecs bool
	// DisableMetrics compiles programs without the observability
	// recorder and records no request phases; /metrics then reports
	// counters but empty snapshots and zero phase totals.
	DisableMetrics bool
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 64
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxPrograms <= 0 {
		c.MaxPrograms = 32
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	if max := runtime.GOMAXPROCS(0); c.Threads <= 0 || c.Threads > max {
		c.Threads = max
	}
	return c
}

// Service executes pipeline requests against a compiled-program cache.
// Create with New, serve HTTP through Handler, or call Do and DoStream
// directly; Close drains and releases everything.
type Service struct {
	cfg   Config
	cache *programCache
	start time.Time

	// sem holds one token per in-flight execution; queued counts requests
	// waiting for a token.
	sem      chan struct{}
	queued   atomic.Int64
	inflight atomic.Int64

	mu       sync.Mutex
	draining bool
	wg       sync.WaitGroup

	requests, errs, panics          atomic.Int64
	rejected429, rejected503, slows atomic.Int64
	phases                          *phaseStats // nil under DisableMetrics

	codec codec

	// beforeRun, when set (tests only), runs on the execution goroutine
	// just before the program runs — the hook overload and deadline tests
	// use to hold a slot deterministically.
	beforeRun func(*RunRequest)
	// beforeSynth, when set (tests only), runs on the goroutine that
	// synthesizes a cold app request's inputs, before it starts.
	beforeSynth func(*RunRequest)
}

// New returns a ready Service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:   cfg,
		cache: newProgramCache(cfg.MaxPrograms),
		start: time.Now(),
		sem:   make(chan struct{}, cfg.MaxInFlight),
		codec: defaultCodec(),
	}
	if !cfg.DisableMetrics {
		s.phases = new(phaseStats)
	}
	return s
}

// Do executes one request: admission, program-cache resolution (compiling
// on a miss), input synthesis, one pooled Program.Run, optional
// verification, and the RunResponse. Failures are returned as *Error with
// an HTTP status; panics anywhere on the path are recovered into a 500. Do
// is safe for concurrent use.
func (s *Service) Do(ctx context.Context, req *RunRequest) (resp *RunResponse, err error) {
	err = s.lifecycle(ctx, req, false, (*flight).runOnce, func(f *flight, h handoff) (err error) {
		resp, err = f.respond(h)
		return err
	})
	return resp, err
}

// flight is one admitted request on its program: what the executor
// goroutine and the caller's goroutine share.
type flight struct {
	s      *Service
	ctx    context.Context // the request deadline; done once the caller has returned
	req    *RunRequest
	e      *entry
	cached bool
	seed   int64
	inputs map[string]*engine.Buffer // memoized per seed and shared: read-only
	exec   func(*flight) handoff
	ch     chan handoff
}

// handoff is one result the executor goroutine passes to the caller: a
// run's outputs (Do), a streamed frame (DoStream), or the error that ends
// the request. last marks the final one, sent after the goroutine has
// freed everything it held.
type handoff struct {
	out   map[string]*engine.Buffer
	dur   time.Duration
	frame *FrameResult
	err   error
	last  bool
}

// send hands h to the caller. It reports false once the request's context
// is done — the deadline passed or the caller returned — and h then stays
// the sender's to dispose of.
func (f *flight) send(h handoff) bool {
	if f.ctx.Err() != nil {
		return false
	}
	select {
	case f.ch <- h:
		return true
	case <-f.ctx.Done():
		return false
	}
}

// lifecycle is the request path Do and DoStream share: counters and the
// recover barrier; validation, drain registration, the deadline and
// admission; the program cache; then the request on one executor
// goroutine. exec runs there and returns the final hand-off (it may send
// earlier ones itself); accept runs on the caller's goroutine for each
// hand-off that carries outputs or a frame.
//
// The executor goroutine owns the admission slot, a shutdown-waitgroup
// count and the program's cache reference, and frees all three before its
// last hand-off, panic included: the caller's next request never finds
// them still held, and a run abandoned at the deadline keeps its program
// out of eviction until it finishes, then recycles its late outputs.
func (s *Service) lifecycle(ctx context.Context, req *RunRequest, stream bool,
	exec func(*flight) handoff, accept func(*flight, handoff) error) (err error) {
	s.requests.Add(1)
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			err = errf(500, "internal error: %v", r)
		}
		if err != nil {
			s.errs.Add(1)
		}
	}()

	if verr := req.validate(); verr != nil {
		return verr
	}
	switch {
	case stream && req.Frames < 1:
		return errSentinel(400, ErrInvalidFrames, "streaming requires frames >= 1, got %d", req.Frames)
	case !stream && req.Frames > 1:
		return errSentinel(400, ErrInvalidFrames, "frames > 1 must use the streaming path (POST /run?frames=N or DoStream)")
	}
	if req.Spec != nil && s.cfg.DisableSpecs {
		return errf(403, "inline specs are disabled on this server")
	}

	// Track the request for graceful shutdown before anything else; after
	// this point Close waits for us.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return &Error{Status: 503, Msg: "server is shutting down", RetryAfterSec: 1}
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()

	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()

	// Admission: one slot per executing request, bounded queue behind it.
	// The slot covers compilation too — a cold-cache stampede compiles at
	// most MaxInFlight programs at once.
	t0 := s.phases.now()
	aerr := s.admit(ctx)
	s.phases.since(phaseQueue, t0)
	if aerr != nil {
		return aerr
	}

	// Frames and ROI are deliberately absent from the key: a stream runs
	// the same compiled program single-shot requests share.
	co, eo := s.options(req)
	t0 = s.phases.now()
	e, cached, cerr := s.cache.acquire(ctx, req.cacheKey(eo, req.Tiles, co.Schedule.Auto), func() (compiled, error) {
		return s.build(req, co, eo)
	})
	s.phases.since(phaseCompile, t0)
	if cerr != nil {
		<-s.sem
		return toError(cerr)
	}
	f := &flight{s: s, ctx: ctx, req: req, e: e, cached: cached, seed: requestSeed(req), exec: exec, ch: make(chan handoff)}
	s.wg.Add(1) // safe: our own wg.Add(1) above is still held
	s.inflight.Add(1)
	go f.execute()

	for {
		select {
		case h := <-f.ch:
			if h.err != nil {
				return toError(h.err)
			}
			if h.out != nil || h.frame != nil {
				if herr := accept(f, h); herr != nil {
					return herr
				}
			}
			if h.last {
				return nil
			}
		case <-ctx.Done():
			s.slows.Add(1)
			return &Error{Status: 503, Msg: "deadline exceeded while executing; retry with a longer deadline", RetryAfterSec: 2}
		}
	}
}

// execute is the executor goroutine: the request's inputs, then its exec
// body; then it frees the slot, the waitgroup count and the cache
// reference, and makes the last hand-off.
func (f *flight) execute() {
	s := f.s
	var h handoff
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			h = handoff{err: errf(500, "execution panicked: %v", r)}
		}
		s.cache.release(f.e)
		s.inflight.Add(-1)
		<-s.sem
		s.wg.Done()
		h.last = true
		if !f.send(h) && h.out != nil {
			// The kernel cannot be interrupted mid-run, so a request past
			// its deadline leaves the run to finish here.
			f.e.res.prog.Executor().Recycle(h.out)
		}
	}()
	t0 := s.phases.now()
	var ierr *Error
	f.inputs, ierr = s.inputsFor(f.e, f.req, f.seed)
	s.phases.since(phaseInputs, t0)
	if ierr != nil {
		h.err = ierr
		return
	}
	h = f.exec(f)
}

// runOnce is Do's executor-side body: one pooled Program.Run.
func (f *flight) runOnce() handoff {
	if f.s.beforeRun != nil {
		f.s.beforeRun(f.req)
	}
	t0 := time.Now()
	out, err := f.e.res.prog.Run(f.inputs)
	return handoff{out: out, dur: time.Since(t0), err: err}
}

// respond is Do's caller-side body: verify the run's outputs when asked,
// build the RunResponse, and recycle the outputs. The executor goroutine
// has already given back the cache reference, so respond reads only what
// a closed program keeps (graph, grouping), and Recycle into a program
// evicted meanwhile drops the buffers.
func (f *flight) respond(h handoff) (*RunResponse, error) {
	prog := f.e.res.prog
	defer prog.Executor().Recycle(h.out)
	f.s.phases.add(phaseRun, h.dur)
	if f.req.Verify {
		ref, err := f.e.reference()
		if err != nil {
			return nil, errf(500, "reference execution: %v", err)
		}
		for _, lo := range prog.Graph.LiveOuts {
			if detail := difftest.Compare(h.out[lo], ref[lo], 1e-5, 32); detail != "" {
				return nil, errf(500, "verification failed: output %q: %s", lo, detail)
			}
		}
	}
	resp := &RunResponse{
		Pipeline:       f.e.res.label,
		Key:            f.e.key,
		Cached:         f.cached,
		RunMillis:      float64(h.dur.Nanoseconds()) / 1e6,
		Verified:       f.req.Verify,
		AutoScheduled:  prog.Grouping.Searched,
		ScheduleDigest: prog.Grouping.Digest(),
	}
	if !f.cached {
		resp.CompileMillis = f.e.res.compileMillis
	}
	if f.req.Output != OutputNone {
		t0 := f.s.phases.now()
		resp.Outputs = outputResults(prog, h.out, f.req.Output)
		f.s.phases.since(phaseChecksum, t0)
	}
	return resp, nil
}

// admit acquires an execution slot, queueing briefly when saturated. The
// caller frees the slot exactly once, with <-s.sem.
func (s *Service) admit(ctx context.Context) *Error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if q := s.queued.Add(1); q > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.rejected429.Add(1)
		return &Error{Status: 429, Msg: "server at capacity: in-flight limit reached and queue full", RetryAfterSec: 1}
	}
	defer s.queued.Add(-1)
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-t.C:
		s.rejected503.Add(1)
		return &Error{Status: 503, Msg: "timed out waiting for an execution slot", RetryAfterSec: 2}
	case <-ctx.Done():
		s.rejected503.Add(1)
		return &Error{Status: 503, Msg: "request deadline expired while queued", RetryAfterSec: 2}
	}
}

// options is the configuration req runs in (core.ServeOptions): the
// server's worker count unless the request names its own, clamped to
// GOMAXPROCS before the cache key is built, so that every request running
// the same number of workers shares one compiled program ("threads": 0,
// "threads": GOMAXPROCS and "threads": 128 on a smaller box); Fast unless
// the request opts out; the auto-scheduler per the request's Auto, else
// the server default, but never with explicit Tiles, which pin the
// hand-specified schedule (validate rejects Auto=true with Tiles).
func (s *Service) options(req *RunRequest) (core.Options, engine.ExecOptions) {
	threads := req.Threads
	if threads == 0 {
		threads = s.cfg.Threads
	}
	auto := s.cfg.AutoSchedule
	if req.Auto != nil {
		auto = *req.Auto
	}
	return core.ServeOptions(req.Tiles, auto && len(req.Tiles) == 0, min(threads, runtime.GOMAXPROCS(0)), req.Fast == nil || *req.Fast, !s.cfg.DisableMetrics)
}

// requestSeed is the seed a request's synthetic inputs are made at: its
// own, else the spec's, else the default.
func requestSeed(req *RunRequest) int64 {
	switch {
	case req.Seed != 0:
		return req.Seed
	case req.Spec != nil:
		return req.Spec.Seed
	}
	return defaultSeed
}

// build compiles the request's pipeline (app or spec) behind the
// compile-barrier: any panic becomes a 500-classed error. A seed-based app
// request's inputs are synthesized beside the compile, on a builder of
// their own; a failed build waits for them before it returns, so no work
// outlives the request's admission slot.
func (s *Service) build(req *RunRequest, co core.Options, eo engine.ExecOptions) (c compiled, err error) {
	var syn *synthesis
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			c, err = compiled{}, errf(500, "compile panicked: %v", r)
		}
		if err != nil && syn != nil {
			<-syn.done
		}
	}()
	t0 := time.Now()
	var b *dsl.Builder
	var outs []string
	if req.App != "" {
		app, aerr := apps.Get(req.App)
		if aerr != nil {
			return c, errf(404, "%v", aerr)
		}
		b, outs = app.Build()
		if len(req.Inputs) == 0 {
			syn = s.synthesize(req, app)
		}
		c = compiled{label: req.App, app: app, builder: b, params: req.Params, pending: syn}
	} else {
		rb, berr := req.Spec.Build(req.Perturb)
		if berr != nil {
			return c, errf(400, "spec: %v", berr)
		}
		spec := *req.Spec
		b, outs = rb.Graph.Builder, rb.LiveOuts
		c = compiled{label: "spec:" + spec.ShortString(), spec: &spec, params: rb.Params,
			pending: synthesized(spec.Seed, servedInputs(rb.Inputs))}
	}
	co.Estimates = c.params
	pl, err := core.Compile(b, outs, co)
	if err != nil {
		return compiled{}, toError(err)
	}
	if c.prog, err = pl.Bind(c.params, eo); err != nil {
		return compiled{}, toError(err)
	}
	c.compileMillis = float64(time.Since(t0).Nanoseconds()) / 1e6
	return c, nil
}

// synthesis is one set of seed inputs made off the executor goroutine;
// in and err are set before done closes.
type synthesis struct {
	seed int64
	done chan struct{}
	in   map[string]*engine.Buffer
	err  *Error
}

// synthesized is a synthesis that is already done.
func synthesized(seed int64, in map[string]*engine.Buffer) *synthesis {
	syn := &synthesis{seed: seed, done: make(chan struct{}), in: in}
	close(syn.done)
	return syn
}

// synthesize starts filling an app request's inputs at its seed on a
// goroutine and a builder of their own, so they share no state with the
// compile. A panic is recovered into a 500, as the compile barrier's is.
func (s *Service) synthesize(req *RunRequest, app *apps.App) *synthesis {
	syn := &synthesis{seed: requestSeed(req), done: make(chan struct{})}
	go func() {
		defer close(syn.done)
		defer func() {
			if r := recover(); r != nil {
				s.panics.Add(1)
				syn.in, syn.err = nil, errf(500, "input synthesis panicked: %v", r)
			}
		}()
		if s.beforeSynth != nil {
			s.beforeSynth(req)
		}
		b, _ := app.Build()
		in, err := app.Inputs(b, req.Params, syn.seed)
		if err != nil {
			syn.err = errf(400, "inputs: %v", err)
			return
		}
		syn.in = in
	}()
	return syn
}

// servedInputs converts inputs to the element type a served program
// binds: the service compiles without NarrowTypes, so every input slot is
// float32. An Integer spec's uint8 image widens exactly.
func servedInputs(in map[string]*engine.Buffer) map[string]*engine.Buffer {
	for name, b := range in {
		if b.Elem != engine.ElemF32 {
			in[name] = engine.ConvertBuffer(b, engine.ElemF32)
		}
	}
	return in
}

// inputsFor resolves the request's input buffers: explicit data when
// supplied, otherwise synthetic inputs at seed, memoized on the entry. The
// first request at the seed a miss synthesized beside its compile takes
// those, waiting for them if need be.
func (s *Service) inputsFor(e *entry, req *RunRequest, seed int64) (map[string]*engine.Buffer, *Error) {
	prog := e.res.prog
	if len(req.Inputs) > 0 {
		in := make(map[string]*engine.Buffer, len(req.Inputs))
		for name, data := range req.Inputs {
			box, err := prog.InputBox(name)
			if err != nil {
				return nil, errf(400, "input %q: %v", name, err)
			}
			buf := engine.NewBuffer(box)
			if len(buf.Data) != len(data) {
				return nil, errf(400, "input %q: got %d values, want %d for box %v", name, len(data), len(buf.Data), box)
			}
			copy(buf.Data, data)
			in[name] = buf
		}
		return in, nil
	}

	e.imu.Lock()
	defer e.imu.Unlock()
	if in, ok := e.inputs[seed]; ok {
		return in, nil
	}
	var in map[string]*engine.Buffer
	switch syn := e.res.pending; {
	case syn != nil && syn.seed == seed:
		e.res.pending = nil
		<-syn.done
		if syn.err != nil {
			return nil, syn.err
		}
		in = syn.in
	case e.res.app != nil:
		var err error
		in, err = e.res.app.Inputs(e.res.builder, e.res.params, seed)
		if err != nil {
			return nil, errf(400, "inputs: %v", err)
		}
	default:
		// A spec's inputs are made in its own element type, as its build
		// makes them, then converted.
		in = make(map[string]*engine.Buffer, len(prog.Graph.Images))
		for name := range prog.Graph.Images {
			box, err := prog.InputBox(name)
			if err != nil {
				return nil, errf(500, "input %q: %v", name, err)
			}
			buf := engine.NewBufferElem(box, e.res.spec.InputElem())
			engine.FillPattern(buf, seed)
			in[name] = buf
		}
		in = servedInputs(in)
	}
	if e.inputs == nil {
		e.inputs = make(map[int64]map[string]*engine.Buffer)
	}
	// Memoize a handful of seeds; a seed-scanning client should not pin
	// unbounded input memory.
	if len(e.inputs) < 4 {
		e.inputs[seed] = in
	}
	return in, nil
}

// toError maps an internal error to a typed *Error: compile- and
// binding-level failures are the client's fault (400); anything else is a
// server-side 500.
func toError(err error) *Error {
	var se *Error
	if errors.As(err, &se) {
		return se
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return &Error{Status: 503, Msg: "request deadline expired", RetryAfterSec: 2}
	case errors.Is(err, affine.ErrUnboundParam),
		errors.Is(err, engine.ErrShape),
		errors.Is(err, engine.ErrNilInput),
		errors.Is(err, engine.ErrUnknownStage):
		return &Error{Status: 400, Msg: err.Error()}
	}
	msg := err.Error()
	for _, pre := range []string{"core: ", "pipeline: ", "bounds: ", "inline: ", "schedule: ", "engine: ", "difftest: "} {
		if len(msg) >= len(pre) && msg[:len(pre)] == pre {
			return &Error{Status: 400, Msg: msg}
		}
	}
	return &Error{Status: 500, Msg: msg}
}

// Close drains: new requests are refused with 503, in-flight requests
// (including abandoned-deadline runs) finish, then every cached program's
// executor and arena shut down. ctx bounds the drain; on expiry the
// programs are left to the OS and ctx's error is returned.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("service: drain interrupted: %w", ctx.Err())
	}
	s.cache.closeAll()
	return nil
}

// Health reports liveness for /healthz.
func (s *Service) Health() Health {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	st := "ok"
	if draining {
		st = "draining"
	}
	return Health{
		Status:        st,
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      s.inflight.Load(),
		Queued:        s.queued.Load(),
		Programs:      s.cache.len(),
	}
}

// Metrics assembles the /metrics body: service counters, cache counters,
// and per-program executor snapshots plus their merged aggregate.
func (s *Service) Metrics() Metrics {
	cs, entries := s.cache.stats()
	m := Metrics{
		Health:          s.Health(),
		Requests:        s.requests.Load(),
		Errors:          s.errs.Load(),
		PanicsRecovered: s.panics.Load(),
		Rejected429:     s.rejected429.Load(),
		Rejected503:     s.rejected503.Load(),
		Timeouts:        s.slows.Load(),
		CacheHits:       cs.hits,
		CacheMisses:     cs.misses,
		Compiles:        cs.misses,
		CompileErrors:   cs.compileErrors,
		Evictions:       cs.evictions,
	}
	m.Phases, m.BodyBytesIn, m.BodyBytesOut = s.phases.totals()
	snaps := make([]obs.Snapshot, 0, len(entries))
	for _, e := range entries {
		snap := e.res.prog.Executor().Snapshot()
		snaps = append(snaps, snap)
		stats := e.res.prog.Stats()
		pm := ProgramMetrics{
			Key:       e.key,
			Pipeline:  e.res.label,
			Requests:  e.requests.Load(),
			Snapshot:  snap,
			Stages:    stats.Stages,
			GenMisses: stats.GenMisses,
		}
		if stats.AutoScheduled {
			pm.Search = &SearchMetrics{
				States:          stats.SearchStates,
				PerDimEvals:     stats.SearchPerDimEvals,
				EnumeratedEvals: stats.SearchEnumeratedEvals,
			}
		}
		m.Programs = append(m.Programs, pm)
	}
	m.Merged = obs.Merge(snaps...)
	return m
}

// Snapshot returns the merged executor snapshot across all cached
// programs — the stream source for /metrics?stream.
func (s *Service) Snapshot() obs.Snapshot {
	_, entries := s.cache.stats()
	snaps := make([]obs.Snapshot, 0, len(entries))
	for _, e := range entries {
		snaps = append(snaps, e.res.prog.Executor().Snapshot())
	}
	return obs.Merge(snaps...)
}
