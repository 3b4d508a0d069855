package engine

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/affine"
	"repro/internal/obs"
)

// StreamOptions configures a frame stream (Executor.NewStream/RunFrames).
type StreamOptions struct {
	// Feedback binds input images to live-out stages across frames: on
	// every frame after the first, the image reads the previous frame's
	// buffer of the named stage — the sliding-window temporal dependence of
	// heat relaxation or exponential motion blur. Frame 0 must supply the
	// image explicitly (the seed state); later frames may omit it. The
	// image's domain must equal the stage's.
	Feedback map[string]string
}

// StreamStats is a stream's always-on accounting: frames run, and — for
// dirty-rectangle frames — tiles recomputed versus tiles skipped, whose
// values the previous frame left in place.
type StreamStats struct {
	Frames        int64
	TilesExecuted int64
	TilesSkipped  int64
}

// Stream runs a compiled program over a frame sequence, reusing the
// executor's arena, row-VM registers and per-fleet-worker state
// frame-to-frame and retaining every full-stage buffer of the latest frame.
// The next frame overwrites those buffers in place, so a frame with a
// changed ROI recomputes only the points the change reaches and the rest
// keep their values at no cost. The exception is a buffer the frame reads
// as an input, a Feedback source: it stays double-buffered, the frame
// writing a fresh buffer and copying the previous values into it.
//
// Ownership contract: the buffers RunFrame returns are retained by the
// stream — they stay valid until the next RunFrame, which overwrites them,
// or Close, and must not be passed to Executor.Recycle (the stream
// recycles them itself). RunFrame is safe for concurrent use but frames
// serialize: a stream is one temporal sequence.
type Stream struct {
	e        *Executor
	feedback map[string]string // input image -> live-out stage

	mu   sync.Mutex
	prev map[string]*Buffer // previous frame's full-stage buffers
	// lastDirty records, per feedback source stage, the region the
	// previous frame changed (its whole domain after a whole frame): the
	// feedback image's dirty region, so incremental motion-blur loops stay
	// incremental.
	lastDirty map[string]affine.Box
	fc        frameCtx
	eff       map[string]*Buffer // effective-inputs scratch
	stats     StreamStats
	closed    bool
}

// NewStream opens a frame stream on the executor. Feedback bindings are
// validated here: the image and stage must exist, the stage must be a
// retained live-out, and their domains must match.
func (e *Executor) NewStream(opts StreamOptions) (*Stream, error) {
	if e.closed.Load() {
		return nil, fmt.Errorf("engine: NewStream on closed executor: %w", ErrClosed)
	}
	var fb map[string]string
	if len(opts.Feedback) > 0 {
		full := make(map[string]bool, len(e.p.fullStages))
		for _, name := range e.p.fullStages {
			full[name] = true
		}
		fb = make(map[string]string, len(opts.Feedback))
		for im, st := range opts.Feedback {
			ib, err := e.p.InputBox(im)
			if err != nil {
				return nil, err
			}
			ob, err := e.p.OutputBox(st)
			if err != nil {
				return nil, err
			}
			if !full[st] {
				return nil, fmt.Errorf("engine: feedback stage %q is not a retained live-out: %w", st, ErrUnknownStage)
			}
			if len(ib) != len(ob) {
				return nil, fmt.Errorf("engine: feedback %s <- %s: rank %d vs %d: %w", im, st, len(ib), len(ob), ErrShape)
			}
			for d := range ib {
				if ib[d] != ob[d] {
					return nil, fmt.Errorf("engine: feedback %s <- %s: dim %d is %v vs %v: %w", im, st, d, ib[d], ob[d], ErrShape)
				}
			}
			fb[im] = st
		}
	}
	return &Stream{e: e, feedback: fb, lastDirty: make(map[string]affine.Box, len(fb))}, nil
}

// RunFrame executes one frame into the previous frame's buffers. roi, when
// non-nil and a previous frame is retained, is the dirty rectangle: the
// caller promises the non-feedback inputs changed only inside it since the
// previous frame, and the engine recomputes only the points whose reads
// (transitively) meet a changed region; every other point keeps the
// previous frame's value. A nil roi — and always the first frame —
// recomputes everything. roi must have the rank of at least one
// non-feedback input image (ErrROI otherwise); an empty roi means "nothing
// changed". A frame that fails drops the retained frame: the next one runs
// whole, like the first, and must supply the feedback images again.
// Outputs follow the Stream ownership contract.
func (s *Stream) RunFrame(inputs map[string]*Buffer, roi affine.Box) (map[string]*Buffer, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("engine: RunFrame on closed stream: %w", ErrClosed)
	}
	e := s.e
	if err := e.beginRun(); err != nil {
		return nil, err
	}
	defer e.endRun()

	// Effective inputs: the caller's, with feedback images bound to the
	// previous frame's stage buffers (feedback wins once a frame exists;
	// frame 0 uses the caller's seed).
	if s.eff == nil {
		s.eff = make(map[string]*Buffer, len(e.p.Graph.Images))
	}
	clear(s.eff)
	for n, b := range inputs {
		s.eff[n] = b
	}
	if s.prev != nil {
		for im, st := range s.feedback {
			if pb := s.prev[st]; pb != nil {
				s.eff[im] = pb
			}
		}
	}

	fc := &s.fc
	useROI := roi != nil && s.prev != nil && e.p.Opts.Tiling == OverlappedTiling
	fc.reset(s.prev, !useROI)
	if useROI {
		if err := s.seedDirty(roi); err != nil {
			s.drop()
			return nil, err
		}
	}

	rc := e.acquireRun()
	rc.fc = fc
	var t0 int64
	if e.rec != nil {
		t0 = obs.Now()
	}
	out, err := e.run(rc, s.eff)
	rc.fc = nil
	e.releaseRun(rc)
	if err != nil {
		// The frame may have half-overwritten the retained buffers.
		s.drop()
		return nil, err
	}
	if e.rec != nil {
		dt := obs.Now() - t0
		// A frame is a run for utilization purposes and additionally feeds
		// the frame counters + latency histogram.
		e.rec.RecordRun(dt)
		e.rec.RecordFrame(dt)
	}

	// Retain the frame. Its buffers are the previous frame's, except a
	// feedback source's: the previous one was this frame's input and
	// recycles to the arena.
	for n, b := range s.prev {
		if out[n] != b {
			e.arena.put(b)
		}
	}
	if s.prev == nil {
		s.prev = make(map[string]*Buffer, len(out))
	}
	clear(s.prev)
	for n, b := range out {
		s.prev[n] = b
	}

	for _, st := range s.feedback {
		d := fc.dirty[st]
		if !useROI {
			d = e.p.stages[st].dom
		}
		s.lastDirty[st] = cloneBoxInto(s.lastDirty[st], d)
	}
	s.stats.TilesExecuted += fc.executed
	s.stats.TilesSkipped += fc.skipped
	s.stats.Frames++
	return out, nil
}

// seedDirty prepares the frame context for a dirty-rectangle run: each
// non-feedback input image is dirty where the ROI intersects its domain
// (whole when the ROI has another rank), each feedback image where its
// source stage changed last frame.
func (s *Stream) seedDirty(roi affine.Box) error {
	e := s.e
	fc := &s.fc
	matched := false
	nonFeedback := 0
	for name := range e.p.Graph.Images {
		if _, isFb := s.feedback[name]; isFb {
			continue
		}
		nonFeedback++
		box := e.p.inBoxes[name]
		if len(box) != len(roi) {
			fc.markDirty(name, box)
			continue
		}
		// The frame's dirty map was just emptied (frameCtx.reset): the
		// image's entry is storage to write the intersection into.
		matched = true
		fc.dirty[name] = intersectInto(fc.dirty[name], roi, box)
	}
	if nonFeedback > 0 && !matched {
		return fmt.Errorf("engine: ROI rank %d matches no input image: %w", len(roi), ErrROI)
	}
	for im, st := range s.feedback {
		fc.markDirty(im, s.lastDirty[st])
	}
	return nil
}

// Stats returns the stream's frame/tile accounting so far.
func (s *Stream) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Close releases the stream: the retained frame buffers recycle to the
// executor's arena (so the last frame's outputs become invalid) and
// further RunFrame calls fail with ErrClosed. Safe to call more than once
// and concurrently with executor Close.
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.drop()
	s.lastDirty = nil
}

// drop recycles the retained frame to the executor's arena, so the next
// frame runs whole, as the first one does.
func (s *Stream) drop() {
	if !s.e.closed.Load() {
		for _, b := range s.prev {
			s.e.arena.put(b)
		}
	}
	s.prev = nil
}

// Frame is one step of a streaming execution (Executor.RunFrames).
type Frame struct {
	// Inputs supplies this frame's input images. Images bound by
	// StreamOptions.Feedback take the previous frame's output instead
	// (frame 0 must supply them explicitly as the seed state).
	Inputs map[string]*Buffer
	// ROI is the changed rectangle relative to the previous frame; nil
	// means everything changed. See Stream.RunFrame.
	ROI affine.Box
}

// RunFrames runs the program over a frame sequence through a Stream:
// buffers, scratchpads and per-fleet-worker state are reused
// frame-to-frame, and frames carrying an ROI recompute only the tiles the
// change touches. each (optional) observes every frame's outputs, which
// are valid only until the next frame overwrites them — copy what must
// outlive the call. A non-nil error from each aborts the sequence.
func (e *Executor) RunFrames(frames []Frame, opts StreamOptions, each func(frame int, outputs map[string]*Buffer) error) error {
	if len(frames) == 0 {
		return fmt.Errorf("engine: empty frame sequence: %w", ErrFrames)
	}
	s, err := e.NewStream(opts)
	if err != nil {
		return err
	}
	defer s.Close()
	for i := range frames {
		out, err := s.RunFrame(frames[i].Inputs, frames[i].ROI)
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		if each != nil {
			if err := each(i, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// frameCtx carries one streamed frame's state through the run: the
// previous frame's retained buffers, which the frame overwrites in place
// (reuse), the dirty box per buffer name (input images and upstream
// live-outs), the affected box of every member of the group in flight, and
// the frame's skip/execute accounting. All of it is written only on the run
// goroutine, between groups; a tile loop's workers read dirty, aff and prev,
// which stay fixed while the group's tiles run.
type frameCtx struct {
	// full marks a whole-frame recompute (first frame, nil ROI, or a
	// non-overlapped tiling strategy): groups run their normal paths.
	full     bool
	prev     map[string]*Buffer
	dirty    map[string]affine.Box
	aff      []affine.Box
	executed int64
	skipped  int64
}

func (fc *frameCtx) reset(prev map[string]*Buffer, full bool) {
	fc.full = full
	fc.prev = prev
	if fc.dirty == nil {
		fc.dirty = make(map[string]affine.Box)
	}
	// Empty every box but keep its storage for the next frame's marks: an
	// empty box reads as clean (isDirty, TilePlan.AffectedInto).
	for name, b := range fc.dirty {
		fc.dirty[name] = b[:0]
	}
	fc.executed, fc.skipped = 0, 0
}

// reuse returns the buffer a streamed frame overwrites in place for stage
// name: the previous frame's, unless the frame reads that buffer as an
// input (a feedback source), which takes a fresh one. nil outside a
// stream, and on a stream's first frame.
func (fc *frameCtx) reuse(name string, inputs map[string]*Buffer) *Buffer {
	if fc == nil {
		return nil
	}
	b := fc.prev[name]
	for _, in := range inputs {
		if in == b {
			return nil
		}
	}
	return b
}

// markDirty unions box into name's dirty region (run goroutine only).
func (fc *frameCtx) markDirty(name string, box affine.Box) {
	fc.dirty[name] = unionInto(fc.dirty[name], box)
}

func (fc *frameCtx) isDirty(name string) bool {
	b := fc.dirty[name]
	return b != nil && !b.Empty()
}

// fed reports whether the frame writes ge's live-out i into a fresh buffer
// (a feedback source), into which a region the frame skips must be copied
// from the previous frame; every other live-out already holds the previous
// frame's values there.
func (fc *frameCtx) fed(ge *groupExec, i int, outputs map[string]*Buffer) bool {
	name := ge.members[i].name
	return ge.liveOut[i] && fc.prev[name] != outputs[name]
}

// growBox returns a box of length n backed by b's storage when possible.
func growBox(b affine.Box, n int) affine.Box {
	if cap(b) < n {
		return make(affine.Box, n)
	}
	return b[:n]
}

// unionInto grows dst, a bounding box or of length 0 for none, to cover b.
func unionInto(dst, b affine.Box) affine.Box {
	if b.Empty() {
		return dst
	}
	if len(dst) == 0 {
		return cloneBoxInto(dst, b)
	}
	for d := range dst {
		dst[d] = dst[d].Union(b[d])
	}
	return dst
}

// keepWhole decides a dirty-rectangle frame for a group that runs on a
// runner of its own: when nothing the group reads outside itself changed,
// its live-outs keep the previous frame's values and it reports true;
// otherwise it marks them dirty whole, and the caller recomputes the
// group.
func (e *Executor) keepWhole(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) bool {
	fc := rc.fc
	if e.groupUpstreamDirty(ge, fc) {
		for i, ls := range ge.members {
			if ge.liveOut[i] {
				fc.markDirty(ls.name, ls.dom)
			}
		}
		fc.executed++
		return false
	}
	for i, ls := range ge.members {
		if fc.fed(ge, i, outputs) {
			outputs[ls.name].CopyRegion(fc.prev[ls.name], ls.dom)
		}
	}
	fc.skipped++
	if rc.w.shard != nil {
		rc.w.shard.TileSkipped(ge.id)
	}
	return true
}

// groupUpstreamDirty reports whether any out-of-group producer or input
// image a member reads changed this frame.
func (e *Executor) groupUpstreamDirty(ge *groupExec, fc *frameCtx) bool {
	for _, ls := range ge.members {
		st := e.p.Graph.Stages[ls.name]
		for _, pr := range st.Producers {
			if !slices.Contains(ge.grp.Members, pr) && fc.isDirty(pr) {
				return true
			}
		}
		for _, im := range st.InputDeps {
			if fc.isDirty(im) {
				return true
			}
		}
	}
	return false
}
