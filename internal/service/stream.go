package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/affine"
	"repro/internal/difftest"
	"repro/internal/engine"
)

// DoStream executes one streaming request: the same admission,
// program-cache resolution and input synthesis as Do, then req.Frames
// sequential frames through an engine.Stream — buffers, scratchpads and
// per-worker state are reused frame-to-frame, and with an ROI set the
// engine recomputes only the tiles the per-frame input change touches.
// emit is called once per completed frame, in order, on the caller's
// goroutine; a non-nil emit error aborts the sequence — DoStream returns
// it as is when it is an *Error, as a 500 otherwise. Frames after the
// first evolve the inputs with a deterministic per-frame pattern,
// confined to the ROI when one is set.
//
// Deadline expiry mid-stream abandons cleanly: DoStream returns 503, the
// frames already emitted stay valid, and the in-flight frame finishes in
// the background before its admission slot, cache reference and retained
// buffers are released.
func (s *Service) DoStream(ctx context.Context, req *RunRequest, emit func(*FrameResult) error) (err error) {
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
	if req.Frames < 1 {
		return errSentinel(400, ErrInvalidFrames, "streaming requires frames >= 1, got %d", req.Frames)
	}
	if req.Spec != nil && s.cfg.DisableSpecs {
		return errf(403, "inline specs are disabled on this server")
	}

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

	t0 := s.phases.now()
	release, aerr := s.admit(ctx)
	s.phases.since(phaseQueue, t0)
	if aerr != nil {
		return aerr
	}
	handedOff := false
	defer func() {
		if !handedOff {
			release()
		}
	}()

	// Frames and ROI are deliberately absent from the key: a stream runs
	// the same compiled program single-shot requests share.
	co, eo, auto := s.options(req)
	key := req.cacheKey(eo, req.Tiles, auto)
	t0 = s.phases.now()
	e, cached, cerr := s.cache.acquire(ctx, key, func() (compiled, error) {
		return s.build(req, co, eo)
	})
	s.phases.since(phaseCompile, t0)
	if cerr != nil {
		return toError(cerr)
	}
	cacheHeld := true
	defer func() {
		if cacheHeld {
			s.cache.release(e)
		}
	}()
	prog := e.res.prog

	base, ierr := s.inputsFor(e, req)
	if ierr != nil {
		return ierr
	}
	// The memoized seed inputs are shared across requests; the stream
	// mutates its inputs per frame, so it works on private clones.
	inputs := make(map[string]*engine.Buffer, len(base))
	for n, b := range base {
		cb := engine.NewBuffer(b.Box)
		copy(cb.Data, b.Data)
		inputs[n] = cb
	}

	var roi affine.Box
	if len(req.ROI) > 0 {
		roi = make(affine.Box, len(req.ROI))
		for d, iv := range req.ROI {
			roi[d] = affine.Range{Lo: iv[0], Hi: iv[1]}
		}
		if verr := validateROI(prog, roi); verr != nil {
			return verr
		}
	}

	st, serr := prog.Executor().NewStream(engine.StreamOptions{})
	if serr != nil {
		return toError(serr)
	}

	seed := req.Seed
	if seed == 0 {
		if e.res.spec != nil {
			seed = e.res.spec.Seed
		} else {
			seed = defaultSeed
		}
	}

	// Frames execute on their own goroutine so the request can time out
	// (or the client disconnect) without abandoning slot accounting: the
	// goroutine owns the admission slot, the shutdown waitgroup and the
	// program-cache reference until the stream actually winds down. It
	// frees them before it sends a final error or closes ch, panic
	// included, so the caller's next request never finds them still held.
	type frameMsg struct {
		fr  *FrameResult
		err error
	}
	ch := make(chan frameMsg)
	done := make(chan struct{})
	s.wg.Add(1) // safe: our own wg.Add(1) above is still held
	s.inflight.Add(1)
	handedOff = true
	cacheHeld = false
	go func() {
		defer s.wg.Done()
		var final error // the error that ends the stream early, if any
		defer func() {
			if r := recover(); r != nil {
				s.panics.Add(1)
				final = errf(500, "execution panicked: %v", r)
			}
			st.Close()
			s.cache.release(e)
			s.inflight.Add(-1)
			release()
			if final != nil {
				select {
				case ch <- frameMsg{err: final}:
				case <-done:
				}
			}
			close(ch)
		}()
		tmp := &engine.Buffer{}
		var prev engine.StreamStats
		for f := 0; f < req.Frames; f++ {
			select {
			case <-done:
				return
			default:
			}
			if s.beforeRun != nil {
				s.beforeRun(req)
			}
			var frameROI affine.Box
			if f > 0 {
				refreshInputs(inputs, roi, seed*1009+int64(f)*37, tmp)
				frameROI = roi
			}
			t0 := time.Now()
			out, rerr := st.RunFrame(inputs, frameROI)
			if rerr != nil {
				final = rerr
				return
			}
			dur := time.Since(t0)
			s.phases.add(phaseRun, dur)
			stats := st.Stats()
			fr := &FrameResult{
				Frame:         f,
				RunMillis:     float64(dur.Nanoseconds()) / 1e6,
				TilesExecuted: stats.TilesExecuted - prev.TilesExecuted,
				TilesSkipped:  stats.TilesSkipped - prev.TilesSkipped,
			}
			prev = stats
			if f == 0 {
				fr.Pipeline = e.res.label
				fr.Key = key
				fr.Cached = cached
				if !cached {
					fr.CompileMillis = e.res.compileMillis
				}
			}
			if req.Output != OutputNone {
				// Encode before the next frame: the stream owns the output
				// buffers and rotates them on the next RunFrame.
				fr.Outputs = outputResults(prog, out, req.Output)
			}
			select {
			case ch <- frameMsg{fr: fr}:
			case <-done:
				return
			}
		}
	}()

	defer close(done)
	for {
		select {
		case msg, ok := <-ch:
			if !ok {
				return nil
			}
			if msg.err != nil {
				return toError(msg.err)
			}
			if eerr := emit(msg.fr); eerr != nil {
				var typed *Error // emit's own verdict, such as the HTTP layer's 422
				if errors.As(eerr, &typed) {
					return typed
				}
				return errf(500, "emit frame %d: %v", msg.fr.Frame, eerr)
			}
		case <-ctx.Done():
			s.slows.Add(1)
			return &Error{Status: 503, Msg: "deadline exceeded mid-stream; frames already emitted are valid", RetryAfterSec: 2}
		}
	}
}

// validateROI checks a request ROI against the program's input domains:
// it must rank-match at least one input image and lie inside the domain
// of one of those — an out-of-bounds rectangle is a client error, not a
// silently-empty recompute.
func validateROI(prog *engine.Program, roi affine.Box) *Error {
	matched, inside := false, false
	for name := range prog.Graph.Images {
		box, err := prog.InputBox(name)
		if err != nil {
			return errf(500, "input %q: %v", name, err)
		}
		if len(box) != len(roi) {
			continue
		}
		matched = true
		contains := true
		for d := range roi {
			if roi[d].Lo < box[d].Lo || roi[d].Hi > box[d].Hi {
				contains = false
				break
			}
		}
		if contains {
			inside = true
			break
		}
	}
	if !matched {
		return errSentinel(400, ErrInvalidROI, "roi rank %d matches no input image", len(roi))
	}
	if !inside {
		return errSentinel(400, ErrInvalidROI, "roi %v lies outside every input image's domain", roi)
	}
	return nil
}

// refreshInputs evolves the frame inputs in place: without an ROI every
// buffer refills with the frame seed; with one, only the ROI region of
// rank-matching buffers is refreshed — upholding the dirty-rectangle
// promise that nothing outside it changed. Iteration is name-ordered so
// identical requests produce identical frame sequences.
func refreshInputs(inputs map[string]*engine.Buffer, roi affine.Box, seed int64, tmp *engine.Buffer) {
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, name := range names {
		b := inputs[name]
		if roi == nil {
			engine.FillPattern(b, seed+int64(i))
			continue
		}
		if len(b.Box) != len(roi) {
			continue
		}
		inter := make(affine.Box, len(roi))
		empty := false
		for d := range roi {
			inter[d] = roi[d].Intersect(b.Box[d])
			if inter[d].Empty() {
				empty = true
				break
			}
		}
		if empty {
			continue
		}
		tmp.Reset(inter)
		engine.FillPattern(tmp, seed+int64(i))
		b.CopyRegion(tmp, inter)
	}
}

// outputResults encodes the live-out buffers per the request's output
// mode (shared by Do and DoStream).
func outputResults(prog *engine.Program, out map[string]*engine.Buffer, mode string) map[string]OutputResult {
	res := make(map[string]OutputResult, len(prog.Graph.LiveOuts))
	for _, lo := range prog.Graph.LiveOuts {
		b := out[lo]
		if b == nil {
			continue
		}
		o := OutputResult{Box: make([][2]int64, len(b.Box))}
		for d, iv := range b.Box {
			o.Box[d] = [2]int64{iv.Lo, iv.Hi}
		}
		o.Checksum = fmt.Sprintf("%016x", difftest.Checksum(b))
		if mode == OutputData {
			o.Data = append([]float32(nil), b.Data...)
		}
		res[lo] = o
	}
	return res
}
