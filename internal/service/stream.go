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
func (s *Service) DoStream(ctx context.Context, req *RunRequest, emit func(*FrameResult) error) error {
	return s.lifecycle(ctx, req, true, (*flight).streamFrames, func(_ *flight, h handoff) error {
		if err := emit(h.frame); err != nil {
			var typed *Error // emit's own verdict, such as the HTTP layer's 422
			if errors.As(err, &typed) {
				return typed
			}
			return errf(500, "emit frame %d: %v", h.frame.Frame, err)
		}
		return nil
	})
}

// streamFrames is DoStream's executor-side body: req.Frames frames on an
// engine.Stream, each handed to the caller as it completes. It stops
// before the next frame once the caller is gone.
func (f *flight) streamFrames() handoff {
	req, prog := f.req, f.e.res.prog
	roi, verr := requestROI(prog, req.ROI)
	if verr != nil {
		return handoff{err: verr}
	}
	// The memoized seed inputs are shared across requests; the stream
	// mutates its inputs per frame, so it works on private clones.
	inputs := make(map[string]*engine.Buffer, len(f.inputs))
	for n, b := range f.inputs {
		cb := engine.NewBufferElem(b.Box, b.Elem)
		cb.CopyRegion(b, b.Box)
		inputs[n] = cb
	}
	elem := engine.ElemF32
	if spec := f.e.res.spec; spec != nil {
		elem = spec.InputElem()
	}
	st, err := prog.Executor().NewStream(engine.StreamOptions{})
	if err != nil {
		return handoff{err: err}
	}
	defer st.Close()

	tmp := &engine.Buffer{}
	var prev engine.StreamStats
	for n := 0; n < req.Frames; n++ {
		if err := f.ctx.Err(); err != nil {
			return handoff{err: err}
		}
		if f.s.beforeRun != nil {
			f.s.beforeRun(req)
		}
		var frameROI affine.Box
		if n > 0 {
			refreshInputs(inputs, roi, f.seed*1009+int64(n)*37, elem, tmp)
			frameROI = roi
		}
		t0 := time.Now()
		out, err := st.RunFrame(inputs, frameROI)
		if err != nil {
			return handoff{err: err}
		}
		dur := time.Since(t0)
		f.s.phases.add(phaseRun, dur)
		stats := st.Stats()
		fr := &FrameResult{
			Frame:         n,
			RunMillis:     float64(dur.Nanoseconds()) / 1e6,
			TilesExecuted: stats.TilesExecuted - prev.TilesExecuted,
			TilesSkipped:  stats.TilesSkipped - prev.TilesSkipped,
		}
		prev = stats
		if n == 0 {
			fr.Pipeline = f.e.res.label
			fr.Key = f.e.key
			fr.Cached = f.cached
			if !f.cached {
				fr.CompileMillis = f.e.res.compileMillis
			}
		}
		if req.Output != OutputNone {
			// Encode before the next frame: the stream owns the output
			// buffers and overwrites them on the next RunFrame.
			t0 := f.s.phases.now()
			fr.Outputs = outputResults(prog, out, req.Output)
			f.s.phases.since(phaseChecksum, t0)
		}
		if !f.send(handoff{frame: fr}) {
			return handoff{err: f.ctx.Err()}
		}
	}
	return handoff{}
}

// requestROI is a request's dirty rectangle as a box, nil when it has
// none. It must rank-match at least one input image and lie inside the
// domain of one of those — an out-of-bounds rectangle is a client error,
// not a silently-empty recompute.
func requestROI(prog *engine.Program, ivs [][2]int64) (affine.Box, *Error) {
	if len(ivs) == 0 {
		return nil, nil
	}
	roi := make(affine.Box, len(ivs))
	for d, iv := range ivs {
		roi[d] = affine.Range{Lo: iv[0], Hi: iv[1]}
	}
	matched := false
images:
	for name := range prog.Graph.Images {
		box, err := prog.InputBox(name)
		if err != nil {
			return nil, errf(500, "input %q: %v", name, err)
		}
		if len(box) != len(roi) {
			continue
		}
		matched = true
		for d := range roi {
			if roi[d].Lo < box[d].Lo || roi[d].Hi > box[d].Hi {
				continue images
			}
		}
		return roi, nil
	}
	if !matched {
		return nil, errSentinel(400, ErrInvalidROI, "roi rank %d matches no input image", len(roi))
	}
	return nil, errSentinel(400, ErrInvalidROI, "roi %v lies outside every input image's domain", roi)
}

// refreshInputs evolves the frame inputs in place: without an ROI every
// buffer refills with the frame seed; with one, only the ROI region of
// rank-matching buffers is refreshed — upholding the dirty-rectangle
// promise that nothing outside it changed. The pattern is made in elem,
// the element type the pipeline's inputs are synthesized in, and converted
// where the buffer's differs, so an Integer spec's frames stay integral.
// Iteration is name-ordered so identical requests produce identical frame
// sequences.
func refreshInputs(inputs map[string]*engine.Buffer, roi affine.Box, seed int64, elem engine.Elem, tmp *engine.Buffer) {
	names := make([]string, 0, len(inputs))
	for n := range inputs {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, name := range names {
		b := inputs[name]
		region := b.Box
		if roi != nil {
			if len(b.Box) != len(roi) {
				continue
			}
			region = make(affine.Box, len(roi))
			for d := range roi {
				region[d] = roi[d].Intersect(b.Box[d])
				if region[d].Empty() {
					region = nil
					break
				}
			}
			if region == nil {
				continue
			}
		} else if b.Elem == elem {
			engine.FillPattern(b, seed+int64(i))
			continue
		}
		tmp.ResetElem(region, elem)
		engine.FillPattern(tmp, seed+int64(i))
		b.CopyRegion(tmp, region)
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
