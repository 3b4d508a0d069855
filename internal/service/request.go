package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/difftest"
	"repro/internal/engine"
	"repro/internal/obs"
)

// Streaming request validation sentinels: wrapped into the 400 *Error so
// callers (and tests) can classify failures with errors.Is. Each wraps the
// matching engine sentinel, so errors.Is against either the service name
// or the root polymage re-export (polymage.ErrFrames, polymage.ErrROI)
// classifies the failure — one family end to end.
var (
	// ErrInvalidFrames marks a rejected frame count (frames < 1 on the
	// streaming path, or above MaxStreamFrames). Wraps engine.ErrFrames.
	ErrInvalidFrames = fmt.Errorf("service: invalid frame count: %w", engine.ErrFrames)
	// ErrInvalidROI marks a rejected dirty rectangle: malformed ([lo, hi]
	// with lo > hi), present without frames > 1, rank-matching no input
	// image, or lying outside every input image's domain. Wraps
	// engine.ErrROI.
	ErrInvalidROI = fmt.Errorf("service: invalid roi: %w", engine.ErrROI)
)

// MaxStreamFrames bounds one streaming request's frame count; longer
// sequences should be split across requests (the program cache makes the
// follow-up request cheap).
const MaxStreamFrames = 4096

// Output payload modes for RunRequest.Output.
const (
	// OutputChecksum returns each live-out's box and content checksum
	// (the default: responses stay small regardless of image size).
	OutputChecksum = "checksum"
	// OutputData additionally returns the raw float32 data, row-major.
	OutputData = "data"
	// OutputNone returns no per-output payload at all (benchmark mode).
	OutputNone = "none"
)

// RunRequest is the body of POST /run: one pipeline execution. The
// pipeline is named either by a registered benchmark application (App) or
// by an inline specification (Spec, the difftest generator's serializable
// DAG format); compiled programs are cached across requests, keyed by the
// pipeline identity, parameter binding and schedule/execution options.
type RunRequest struct {
	// App names a registered application (see GET /apps). Exactly one of
	// App and Spec must be set.
	App string `json:"app,omitempty"`
	// Spec is an inline pipeline specification. Spec requests are treated
	// as untrusted: construction panics and compile errors come back as
	// HTTP errors, never crash the server.
	Spec *difftest.PipelineSpec `json:"spec,omitempty"`
	// Params binds the pipeline's integer parameters (image sizes). App
	// requests must bind every parameter the app declares; Spec requests
	// ignore it (the spec carries its own extent).
	Params map[string]int64 `json:"params,omitempty"`
	// Seed selects the synthetic input pattern when Inputs is absent
	// (0 = the app default seed, or the spec's own seed).
	Seed int64 `json:"seed,omitempty"`
	// Inputs optionally supplies raw input data per image, row-major over
	// the image's domain box.
	Inputs map[string][]float32 `json:"inputs,omitempty"`
	// Threads overrides the per-program worker count (0 = server default;
	// negative is a 400).
	Threads int `json:"threads,omitempty"`
	// Fast selects the specialized float32 kernels (default true).
	Fast *bool `json:"fast,omitempty"`
	// Tiles overrides the schedule's tile sizes (part of the cache key).
	// Mutually exclusive with Auto=true: explicit tiles pin a
	// hand-specified schedule.
	Tiles []int64 `json:"tiles,omitempty"`
	// Auto overrides the server's auto-schedule default for this request:
	// true compiles with the cost-model auto-scheduler
	// (schedule.Options.Auto), false forces the paper's threshold
	// heuristic, absent uses Config.AutoSchedule. Part of the cache key —
	// an auto-scheduled and a hand-scheduled program never collide.
	Auto *bool `json:"auto,omitempty"`
	// Output selects the response payload: "checksum" (default), "data" or
	// "none".
	Output string `json:"output,omitempty"`
	// Verify (Spec only) also runs the reference interpreter and fails the
	// request with 500 if the optimized engine's outputs diverge.
	Verify bool `json:"verify,omitempty"`
	// Perturb (Spec only) builds the fault-injected variant of the spec —
	// stages marked Perturb emulate a miscompiled kernel. With Verify set
	// this is the serving layer's fault-injection hook: the poisoned
	// request fails, the process keeps serving.
	Perturb bool `json:"perturb,omitempty"`
	// Frames > 1 runs the pipeline as a streamed frame sequence of that
	// length (DoStream / POST /run?frames=N, answered as ndjson — one
	// FrameResult line per frame). Frames after the first refresh the
	// inputs with a deterministic per-frame pattern, inside ROI only when
	// one is set. 0 or 1 means single-shot. Not part of the program-cache
	// key: a stream reuses the same compiled program as single-shot runs.
	Frames int `json:"frames,omitempty"`
	// ROI, with Frames > 1, is the dirty rectangle ([lo, hi] inclusive per
	// dimension): per-frame input changes are confined to it, and the
	// engine recomputes only the tiles whose reads reach it, copying every
	// other tile from the previous frame's retained buffers. It must
	// rank-match at least one input image and lie inside its domain. Not
	// part of the program-cache key.
	ROI [][2]int64 `json:"roi,omitempty"`
}

// validate checks request-level invariants that do not need compilation.
func (r *RunRequest) validate() *Error {
	if (r.App == "") == (r.Spec == nil) {
		return errf(400, "exactly one of \"app\" and \"spec\" must be set")
	}
	switch r.Output {
	case "", OutputChecksum, OutputData, OutputNone:
	default:
		return errf(400, "output must be %q, %q or %q", OutputChecksum, OutputData, OutputNone)
	}
	if r.Verify || r.Perturb {
		if r.Spec == nil {
			return errf(400, "verify/perturb require an inline spec")
		}
	}
	if r.Verify {
		if len(r.Inputs) > 0 {
			return errf(400, "verify uses the spec's synthetic inputs; explicit inputs are not supported")
		}
		if r.Seed != 0 && r.Seed != r.Spec.Seed {
			return errf(400, "verify compares against the reference at the spec's own seed %d", r.Spec.Seed)
		}
		if r.Frames > 1 {
			return errf(400, "verify is not supported with frames; the difftest streaming knobs cover frame sequences")
		}
	}
	if r.Threads < 0 {
		return errf(400, "threads must be 0 (the server default) or positive, got %d", r.Threads)
	}
	if r.Auto != nil && *r.Auto && len(r.Tiles) > 0 {
		return errf(400, "auto and tiles are mutually exclusive: explicit tiles pin a hand-specified schedule")
	}
	if r.Frames < 0 || r.Frames > MaxStreamFrames {
		return errSentinel(400, ErrInvalidFrames, "frames must be between 1 and %d, got %d", MaxStreamFrames, r.Frames)
	}
	if len(r.ROI) > 0 {
		if r.Frames <= 1 {
			return errSentinel(400, ErrInvalidROI, "roi requires frames > 1: partial recompute is relative to a previous frame")
		}
		for d, iv := range r.ROI {
			if iv[0] > iv[1] {
				return errSentinel(400, ErrInvalidROI, "roi dim %d: lo %d > hi %d", d, iv[0], iv[1])
			}
		}
	}
	return nil
}

// cacheKey derives the compiled-program cache key: a hash over the
// pipeline identity (app name and parameter binding, or full spec JSON
// plus the perturb flag — a spec carries its own extent and ignores
// Params) and every schedule/execution option that changes the compiled
// artifact, eo.Threads already resolved by Service.options. Requests that
// differ only in inputs, seed or output mode share a program.
func (r *RunRequest) cacheKey(eo engine.ExecOptions, tiles []int64, auto bool) string {
	h := sha256.New()
	if r.App != "" {
		fmt.Fprintf(h, "app=%s;", r.App)
		names := make([]string, 0, len(r.Params))
		for n := range r.Params {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(h, "%s=%d;", n, r.Params[n])
		}
	} else {
		b, _ := json.Marshal(r.Spec)
		fmt.Fprintf(h, "spec=%s;perturb=%v;", b, r.Perturb)
	}
	fmt.Fprintf(h, "threads=%d;fast=%v;metrics=%v;tiles=%v", eo.Threads, eo.Fast, eo.Metrics, tiles)
	if auto {
		// The search is deterministic and its options are fixed within a
		// process, so app + params + this marker identify the compiled
		// artifact.
		fmt.Fprint(h, ";auto")
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// OutputResult is one live-out stage's result in a RunResponse.
type OutputResult struct {
	// Box is the output's concrete domain, one [lo, hi] pair per dimension.
	Box [][2]int64 `json:"box"`
	// Checksum fingerprints shape and exact contents (difftest.Checksum).
	Checksum string `json:"checksum,omitempty"`
	// Data is the raw row-major float32 data (Output == "data" only).
	Data []float32 `json:"data,omitempty"`
}

// RunResponse is the body of a successful POST /run.
type RunResponse struct {
	// Pipeline labels the compiled pipeline (app name or spec summary).
	Pipeline string `json:"pipeline"`
	// Key is the program-cache key the request resolved to.
	Key string `json:"key"`
	// Cached reports whether the program was served from the cache; when
	// false, CompileMillis is the compile+bind time this request paid.
	Cached        bool    `json:"cached"`
	CompileMillis float64 `json:"compile_ms,omitempty"`
	// RunMillis is the pipeline execution time (excluding queueing,
	// input synthesis and response encoding).
	RunMillis float64 `json:"run_ms"`
	// Verified reports that the outputs were checked against the
	// reference interpreter (Verify requests only).
	Verified bool                    `json:"verified,omitempty"`
	Outputs  map[string]OutputResult `json:"outputs,omitempty"`
	// AutoScheduled reports that the program was compiled by the
	// cost-model auto-scheduler; ScheduleDigest is a short hash of the
	// schedule actually chosen (grouping + tile sizes), so clients can
	// tell two searched schedules apart.
	AutoScheduled  bool   `json:"auto_scheduled,omitempty"`
	ScheduleDigest string `json:"schedule_digest,omitempty"`
}

// FrameResult is one frame of a streaming request (DoStream /
// POST /run?frames=N): each ndjson line is one of these, emitted as the
// frame completes. Frame 0 additionally carries the program identity that
// RunResponse would — pipeline label, cache key and hit/compile cost.
type FrameResult struct {
	// Frame is the zero-based frame index.
	Frame int `json:"frame"`
	// RunMillis is this frame's execution time.
	RunMillis float64 `json:"run_ms"`
	// TilesExecuted and TilesSkipped account the frame's dirty-rectangle
	// decisions: tiles recomputed versus tiles skipped, which keep the
	// previous frame's values. Whole-frame recomputes (frame 0, or no ROI) report 0/0 — the
	// partial-recompute machinery was not engaged.
	TilesExecuted int64 `json:"tiles_executed"`
	TilesSkipped  int64 `json:"tiles_skipped"`
	// Pipeline, Key, Cached and CompileMillis are set on frame 0 only.
	Pipeline      string                  `json:"pipeline,omitempty"`
	Key           string                  `json:"key,omitempty"`
	Cached        bool                    `json:"cached,omitempty"`
	CompileMillis float64                 `json:"compile_ms,omitempty"`
	Outputs       map[string]OutputResult `json:"outputs,omitempty"`
}

// Error is the service's typed failure: an HTTP status, a message (the
// JSON body), an optional Retry-After hint for overload statuses, and an
// optional wrapped sentinel (ErrInvalidFrames, ErrInvalidROI, engine
// errors) reachable through errors.Is.
type Error struct {
	Status        int    `json:"status"`
	Msg           string `json:"error"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
	// Err classifies the failure for errors.Is; it never reaches the wire.
	Err error `json:"-"`
}

func (e *Error) Error() string { return e.Msg }

// Unwrap exposes the sentinel so errors.Is(err, ErrInvalidROI) works
// through the service boundary.
func (e *Error) Unwrap() error { return e.Err }

func errf(status int, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// errSentinel builds an *Error wrapping a classification sentinel.
func errSentinel(status int, sentinel error, format string, args ...any) *Error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...), Err: sentinel}
}

// Health is the body of GET /healthz.
type Health struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	InFlight      int64   `json:"in_flight"`
	Queued        int64   `json:"queued"`
	Programs      int     `json:"programs"`
}

// ProgramMetrics is one cached program's slice of GET /metrics.
type ProgramMetrics struct {
	Key      string       `json:"key"`
	Pipeline string       `json:"pipeline"`
	Requests int64        `json:"requests"`
	Snapshot obs.Snapshot `json:"snapshot"`
	// Stages is the compile-time kernel/row-VM model per stage: which
	// evaluator each piece lowered to, the VM instruction mix, fused-op
	// counts and register high-water (obs.StageModel).
	Stages []obs.StageModel `json:"stages,omitempty"`
	// GenMisses counts, per reason, the stage pieces that did not bind an
	// ahead-of-time generated kernel (obs.GenMisses); no_kernel > 0 means
	// the linked kernel package is stale for this pipeline.
	GenMisses obs.GenMisses `json:"gen_misses"`
	// Search is what the auto-scheduler's search did to produce this
	// program's schedule; absent for a hand-scheduled program.
	Search *SearchMetrics `json:"search,omitempty"`
}

// SearchMetrics are the schedule search's effort counters
// (obs.ProgramStats Search*): candidates priced, and how many of them
// enumerated the group's tiles per dimension or tile by tile.
type SearchMetrics struct {
	States          int `json:"states"`
	PerDimEvals     int `json:"per_dim_evals"`
	EnumeratedEvals int `json:"enumerated_evals"`
}

// PhaseMetrics totals one request phase: how many samples, their summed
// time and a power-of-two latency histogram (bucket i counts samples of
// [2^(i-1), 2^i) microseconds, trailing empty buckets trimmed — the layout
// of obs.Snapshot.FrameHist).
type PhaseMetrics struct {
	Count int64   `json:"count"`
	Nanos int64   `json:"ns"`
	Hist  []int64 `json:"hist,omitempty"`
}

// RequestPhases splits request time by phase. Decode and Encode are taken
// by the HTTP handler only: Decode is reading and parsing a /run body,
// Encode is checking, encoding and writing a 200 response (a stream
// contributes one sample per frame line). Queue is the wait for an
// execution slot; Compile is program-cache resolution — a lookup on a hit,
// the compile, or the wait for another request's compile, on a miss.
// Inputs is resolving the run's input buffers: copying explicit inputs, a
// memo lookup, synthesizing seed inputs, or waiting for the synthesis a
// miss started beside its compile. Run is pipeline execution, one sample
// per run or streamed frame; Checksum is fingerprinting (and, for output
// "data", copying) the outputs, one sample per response or frame that
// carries them.
type RequestPhases struct {
	Decode   PhaseMetrics `json:"decode"`
	Queue    PhaseMetrics `json:"queue"`
	Compile  PhaseMetrics `json:"compile"`
	Inputs   PhaseMetrics `json:"inputs"`
	Run      PhaseMetrics `json:"run"`
	Checksum PhaseMetrics `json:"checksum"`
	Encode   PhaseMetrics `json:"encode"`
}

// Metrics is the body of GET /metrics: service-level counters plus every
// cached program's executor snapshot and their merged aggregate. Phases,
// BodyBytesIn and BodyBytesOut (the /run bodies read and the 200 responses
// written) stay zero under Config.DisableMetrics.
type Metrics struct {
	Health          Health           `json:"health"`
	Requests        int64            `json:"requests"`
	Errors          int64            `json:"errors"`
	PanicsRecovered int64            `json:"panics_recovered"`
	Rejected429     int64            `json:"rejected_429"`
	Rejected503     int64            `json:"rejected_503"`
	Timeouts        int64            `json:"timeouts"`
	CacheHits       int64            `json:"cache_hits"`
	CacheMisses     int64            `json:"cache_misses"`
	Compiles        int64            `json:"compiles"`
	CompileErrors   int64            `json:"compile_errors"`
	Evictions       int64            `json:"evictions"`
	Phases          RequestPhases    `json:"phases"`
	BodyBytesIn     int64            `json:"body_bytes_in"`
	BodyBytesOut    int64            `json:"body_bytes_out"`
	Programs        []ProgramMetrics `json:"programs"`
	Merged          obs.Snapshot     `json:"merged"`
}
