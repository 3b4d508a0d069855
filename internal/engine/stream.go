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
// dirty-rectangle frames — tiles recomputed versus tiles copied from the
// previous frame's retained buffers.
type StreamStats struct {
	Frames        int64
	TilesExecuted int64
	TilesSkipped  int64
}

// Stream runs a compiled program over a frame sequence, reusing the
// executor's arena, row-VM registers and per-fleet-worker state
// frame-to-frame and retaining every full-stage buffer of the latest frame
// so the next frame can (a) feed Feedback-bound inputs and (b) recompute
// only the tiles a changed ROI touches, copying the rest.
//
// Ownership contract: the buffers RunFrame returns are retained by the
// stream — they stay valid until the next RunFrame or Close, and must not
// be passed to Executor.Recycle (the stream recycles them itself when it
// rotates frames). RunFrame is safe for concurrent use but frames
// serialize: a stream is one temporal sequence.
type Stream struct {
	e        *Executor
	feedback map[string]string // input image -> live-out stage

	mu   sync.Mutex
	prev map[string]*Buffer // previous frame's full-stage buffers
	// lastDirty records, per full stage, the region the previous ROI frame
	// changed; prevFull marks the previous frame as a whole-frame recompute
	// (everything dirty). Feedback-bound inputs derive their dirty region
	// from this, so incremental motion-blur loops stay incremental.
	lastDirty map[string]affine.Box
	prevFull  bool
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
	return &Stream{e: e, feedback: fb}, nil
}

// RunFrame executes one frame. roi, when non-nil and a previous frame is
// retained, is the dirty rectangle: the caller promises the non-feedback
// inputs changed only inside it since the previous frame, and the engine
// recomputes only tiles whose required region (transitively) reads a
// changed region, copying every other tile's live-out values from the
// previous frame's buffers. A nil roi — and always the first frame —
// recomputes everything. roi must have the rank of at least one
// non-feedback input image (ErrROI otherwise); an empty roi means "nothing
// changed". Outputs follow the Stream ownership contract.
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
	if useROI {
		if err := s.seedDirty(roi); err != nil {
			return nil, err
		}
	} else {
		fc.reset(nil, true)
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
		return nil, err
	}
	if e.rec != nil {
		dt := obs.Now() - t0
		// A frame is a run for utilization purposes and additionally feeds
		// the frame counters + latency histogram.
		e.rec.RecordRun(dt)
		e.rec.RecordFrame(dt)
	}

	// Rotate retention: the previous frame's buffers served their purpose
	// (feedback reads and clean-tile copies) and recycle to the arena; the
	// new outputs are retained until the next frame.
	for _, b := range s.prev {
		e.arena.put(b)
	}
	if s.prev == nil {
		s.prev = make(map[string]*Buffer, len(out))
	}
	clear(s.prev)
	for n, b := range out {
		s.prev[n] = b
	}

	if useROI {
		if s.lastDirty == nil {
			s.lastDirty = make(map[string]affine.Box, len(e.p.fullStages))
		}
		for _, name := range e.p.fullStages {
			d := fc.dirty[name]
			ld := s.lastDirty[name]
			if d == nil {
				if cap(ld) > 0 {
					ld = ld[:0]
				}
				s.lastDirty[name] = ld // zero-length = unchanged
				continue
			}
			ld = cloneBoxInto(ld, d)
			s.lastDirty[name] = ld
		}
		s.prevFull = false
		s.stats.TilesExecuted += fc.executed
		s.stats.TilesSkipped += fc.skipped
	} else {
		s.prevFull = true
	}
	s.stats.Frames++
	return out, nil
}

// seedDirty prepares the frame context for a dirty-rectangle run: each
// non-feedback input image is dirty where the ROI intersects its domain,
// each feedback image where its source stage changed last frame.
func (s *Stream) seedDirty(roi affine.Box) error {
	e := s.e
	fc := &s.fc
	fc.reset(s.prev, false)
	matched := false
	nonFeedback := 0
	for name := range e.p.Graph.Images {
		if _, isFb := s.feedback[name]; isFb {
			continue
		}
		nonFeedback++
		box, err := e.p.InputBox(name)
		if err != nil {
			return err
		}
		if len(box) != len(roi) {
			// The ROI cannot describe this image's change; conservatively
			// treat the whole image as changed.
			fc.markDirty(name, box)
			continue
		}
		matched = true
		dirty := true
		for d := range box {
			if roi[d].Intersect(box[d]).Empty() {
				dirty = false
				break
			}
		}
		if dirty {
			inter := make(affine.Box, len(box))
			for d := range box {
				inter[d] = roi[d].Intersect(box[d])
			}
			fc.markDirty(name, inter)
		}
	}
	if nonFeedback > 0 && !matched {
		return fmt.Errorf("engine: ROI rank %d matches no input image: %w", len(roi), ErrROI)
	}
	for im, st := range s.feedback {
		if s.prevFull {
			box, err := e.p.InputBox(im)
			if err != nil {
				return err
			}
			fc.markDirty(im, box)
			continue
		}
		if ld := s.lastDirty[st]; len(ld) > 0 && !ld.Empty() {
			fc.markDirty(im, ld)
		}
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
	if !s.e.closed.Load() {
		for _, b := range s.prev {
			s.e.arena.put(b)
		}
	}
	s.prev = nil
	s.lastDirty = nil
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
// are valid only until the next frame runs — copy what must outlive the
// call. A non-nil error from each aborts the sequence.
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

// frameCtx carries one streamed frame's dirty-rectangle state through the
// run: the previous frame's retained buffers, the dirty box per buffer
// name (input images and upstream live-outs), the per-tile decisions of
// the group in flight, and the frame's skip/execute accounting. All of it
// is written only on the run goroutine (between groups and in the
// per-group prepass); workers read prev and the tileDirty table, both fixed
// while the group's tiles run.
type frameCtx struct {
	// full marks a whole-frame recompute (first frame, nil ROI, or a
	// non-overlapped tiling strategy): groups run their normal paths.
	full      bool
	prev      map[string]*Buffer
	dirty     map[string]affine.Box
	ext       [][]affine.Box // per group: TilePlan.ExternalInto scratch
	tileDirty []bool
	executed  int64
	skipped   int64
}

func (fc *frameCtx) reset(prev map[string]*Buffer, full bool) {
	fc.full = full
	fc.prev = prev
	if fc.dirty == nil {
		fc.dirty = make(map[string]affine.Box)
	}
	clear(fc.dirty)
	fc.executed, fc.skipped = 0, 0
}

// markDirty unions box into name's dirty region (run goroutine only).
func (fc *frameCtx) markDirty(name string, box affine.Box) {
	d := fc.dirty[name]
	if len(d) != len(box) {
		fc.dirty[name] = box.Clone()
		return
	}
	for i := range d {
		d[i] = d[i].Union(box[i])
	}
}

// retained reports whether the previous frame kept every live-out of ge.
func (fc *frameCtx) retained(ge *groupExec) bool {
	for i, ls := range ge.members {
		if ge.liveOut[i] && fc.prev[ls.name] == nil {
			return false
		}
	}
	return true
}

func (fc *frameCtx) isDirty(name string) bool {
	b := fc.dirty[name]
	return b != nil && !b.Empty()
}

// boxesIntersect reports whether two same-rank boxes overlap.
func boxesIntersect(a, b affine.Box) bool {
	if len(a) != len(b) || len(a) == 0 {
		return false
	}
	for d := range a {
		if a[d].Intersect(b[d]).Empty() {
			return false
		}
	}
	return true
}

// growBox returns a box of length n backed by b's storage when possible.
func growBox(b affine.Box, n int) affine.Box {
	if cap(b) < n {
		return make(affine.Box, n)
	}
	return b[:n]
}

// copyWhole decides a dirty-rectangle frame for a group that runs on a
// runner of its own: when nothing the group reads outside itself changed
// and the previous frame retained its live-outs, it copies them whole and
// reports true; otherwise it marks them dirty whole, and the caller
// recomputes the group.
func (e *Executor) copyWhole(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) bool {
	fc := rc.fc
	if e.groupUpstreamDirty(ge, fc) || !fc.retained(ge) {
		for i, ls := range ge.members {
			if ge.liveOut[i] {
				fc.markDirty(ls.name, ls.dom)
			}
		}
		fc.executed++
		return false
	}
	for i, ls := range ge.members {
		if ge.liveOut[i] {
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

// dirtyTiles is a dirty-rectangle frame's prepass over ge's tile plan, run
// on the run goroutine before the tile loop: a tile is dirty when a region
// it reads outside the group (RequiredInto, then ExternalInto) meets the
// frame's dirty set, or when the previous frame retained no copy of a
// live-out. Dirty tiles' owned boxes fold into the group's own dirty-out,
// which downstream groups consult — a clean tile's copied values are
// bitwise identical to the previous frame's, so the propagation is exact,
// not just sound. The returned table is the frame's, reused group to group.
func (e *Executor) dirtyTiles(rc *runCtx, ge *groupExec) ([]bool, error) {
	fc, tp, w := rc.fc, ge.tp, rc.w
	numTiles := tp.NumTiles()
	if cap(fc.tileDirty) < int(numTiles) {
		fc.tileDirty = make([]bool, numTiles)
	}
	dirty := fc.tileDirty[:numTiles]
	prevOK := fc.retained(ge)
	if fc.ext == nil {
		fc.ext = make([][]affine.Box, len(e.p.groups))
	}
	ext := fc.ext[ge.id]
	if ext == nil {
		ext = tp.ExtBoxes()
		fc.ext[ge.id] = ext
	}
	req := w.reqBoxes(ge)
	w.tileIdx = growI64(w.tileIdx, len(tp.TileCounts))
	idx := w.tileIdx
	for t := range dirty {
		tp.TileIndex(int64(t), idx)
		d := !prevOK
		if prevOK {
			if err := tp.RequiredInto(idx, req); err != nil {
				return nil, err
			}
			if err := tp.ExternalInto(req, ext); err != nil {
				return nil, err
			}
			for k, b := range ext {
				if db := fc.dirty[tp.ExtName(k)]; db != nil && boxesIntersect(b, db) {
					d = true
					break
				}
			}
		}
		dirty[t] = d
		if !d {
			fc.skipped++
			if w.shard != nil {
				w.shard.TileSkipped(ge.id)
			}
			continue
		}
		fc.executed++
		for i, ls := range ge.members {
			if !ge.liveOut[i] {
				continue
			}
			if own := w.owned(ge, i, idx); !own.Empty() {
				fc.markDirty(ls.name, own)
			}
		}
	}
	return dirty, nil
}
