package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/obs"
)

// Run executes the compiled pipeline on the given input images and returns
// the buffers of every full-materialized stage (group live-outs); the
// pipeline's declared outputs are among them. With ExecOptions.ReuseBuffers,
// intermediate buffers are pooled and only the declared outputs are
// returned.
//
// Run is a thin wrapper over the Program's lazily created persistent
// Executor: the worker pool, scratchpads and the buffer arena survive
// across calls. Run is safe to call concurrently; see Executor for the
// exact contract and for Recycle/Close.
func (p *Program) Run(inputs map[string]*Buffer) (map[string]*Buffer, error) {
	return p.Executor().Run(inputs)
}

// runGroup runs one group. Every group but an accumulator, a
// self-referencing stage or a fused group under parallelogram/split tiling
// runs the tile loop over its plan, which in a dirty-rectangle frame (a
// stream run with an ROI) decides tile by tile which tiles run. Those
// others have runners of their own, whose internal dependences cross any
// tile cut: such a frame recomputes them whole or keeps them whole.
func (e *Executor) runGroup(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) error {
	fc := rc.fc
	ls := ge.members[0]
	fused := len(ge.members) > 1
	if fused && e.p.Opts.Tiling == OverlappedTiling || !fused && !ls.isAcc && !ls.selfRef {
		return e.runTiled(rc, ge, outputs)
	}
	if fc != nil {
		if !fc.full && e.keepWhole(rc, ge, outputs) {
			return nil
		}
		// The runner recomputes the live-outs whole, in place: where a
		// predicated piece's predicate fails, the point keeps its value,
		// which must be a fresh buffer's zero.
		for i, m := range ge.members {
			if ge.liveOut[i] && m.predicated() {
				outputs[m.name].Fill(0)
			}
		}
	}
	switch {
	case fused && e.p.Opts.Tiling == ParallelogramTiling:
		return e.runParallelogram(rc, ge, outputs)
	case fused:
		return e.runSplit(rc, ge, outputs)
	}
	// The plan of an accumulator or a self-referencing stage is one region.
	if w := rc.w; w.shard != nil {
		w.shard.Tile(ge.id)
	}
	if ls.isAcc {
		return e.runAccumulator(rc, ls, outputs[ls.name])
	}
	return e.runSelfRef(rc, ls, outputs[ls.name])
}

// cloneBoxInto copies src into dst's storage (grown as needed) so hot loops
// can take region clones without allocating.
func cloneBoxInto(dst, src affine.Box) affine.Box {
	if cap(dst) < len(src) {
		dst = make(affine.Box, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// runTiled executes a group's tile plan: tiles are independent (a fused
// group's tiles recompute their halo, a lone stage's bands are disjoint), so
// they are distributed over the worker pool as a bag of tasks;
// intermediates live in per-worker scratchpads that are reused across
// tiles, groups and runs (Section 3.6). A tile's required regions are
// propagated from its live-outs' owned boxes (TilePlan.PropagateInto).
//
// A streamed frame's outputs are the previous frame's buffers, overwritten
// in place (see Stream). In a dirty-rectangle frame the run goroutine first
// computes every member's affected box (TilePlan.AffectedInto): the points
// whose reads meet the frame's dirty map. It marks the live-outs' affected
// boxes dirty for later groups before the section: owned boxes partition
// each live-out's domain, so their clipped parts cover exactly that box.
// Each tile then clips its owned boxes to the affected ones, after copying
// a feedback source's owned box from the previous frame, and is skipped
// when every clipped box is empty. A point outside the affected box reads
// what it read the frame before and keeps the previous frame's value,
// bitwise, so the clipping is exact, not just sound.
func (e *Executor) runTiled(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) error {
	fc, tp := rc.fc, ge.tp
	dirty := fc != nil && !fc.full
	if dirty {
		fc.aff = slices.Grow(fc.aff[:0], len(ge.members))[:len(ge.members)]
		for i, ls := range ge.members {
			fc.aff[i] = growBox(fc.aff[i], len(ls.dom))
		}
		if err := tp.AffectedInto(fc.dirty, fc.aff); err != nil {
			return err
		}
		for i, ls := range ge.members {
			if ge.liveOut[i] {
				fc.markDirty(ls.name, fc.aff[i])
			}
		}
	}
	numTiles := tp.NumTiles()
	var next, skipped atomic.Int64
	err := e.parallel(rc, int(min(int64(e.threads), numTiles)), func(w *worker, fe *firstErr) {
		rc.bind(w)
		w.tileIdx = growI64(w.tileIdx, len(tp.TileCounts))
		idx := w.tileIdx
		req := w.reqBoxes(ge)
		for {
			t := next.Add(1) - 1
			if t >= numTiles || fe.isSet() {
				return
			}
			tp.TileIndex(t, idx)
			run := false
			for i, ls := range ge.members {
				if !ge.liveOut[i] {
					continue
				}
				tp.OwnedInto(req[i], i, idx)
				if dirty {
					if fc.fed(ge, i, outputs) {
						outputs[ls.name].CopyRegion(fc.prev[ls.name], req[i])
					}
					req[i] = intersectInto(req[i], req[i], fc.aff[i])
				}
				run = run || !req[i].Empty()
			}
			if !run {
				skipped.Add(1)
				if w.shard != nil {
					w.shard.TileSkipped(ge.id)
				}
				continue
			}
			if err := tp.PropagateInto(req); err != nil {
				fe.set(err)
				return
			}
			e.runTile(w, ge, idx, req, outputs, fc != nil)
		}
	})
	if dirty {
		fc.skipped += skipped.Load()
		fc.executed += numTiles - skipped.Load()
	}
	return err
}

// runTile computes tile idx of ge's plan over req, its required regions:
// every member over its region, the anchor straight into its full buffer
// (its required region is exactly its owned tile), the others into the
// worker's scratchpads, from which live-outs copy their owned boxes.
// inPlace says the full buffers hold a previous frame's values. A
// predicated piece stores the point's own value where its predicate fails,
// which must read as a fresh buffer's zero, so there a predicated anchor
// computes into a scratchpad too.
func (e *Executor) runTile(w *worker, ge *groupExec, idx []int64, req []affine.Box, outputs map[string]*Buffer, inPlace bool) {
	if w.shard != nil {
		w.shard.Tile(ge.id)
	}
	for i, ls := range ge.members {
		box := req[i]
		if box.Empty() {
			continue
		}
		if ls.name == ge.grp.Anchor && !(inPlace && ls.predicated()) {
			out := outputs[ls.name]
			w.ctx.bufs[ls.slot] = out
			e.p.computeStage(w, ls, box, out, 0, 0)
			continue
		}
		sc := w.scratch[ls.id]
		if sc == nil {
			sc = &Buffer{}
			w.scratch[ls.id] = sc
		}
		sc.ResetElem(box, ls.elem)
		w.ctx.bufs[ls.slot] = sc
		// The part of box outside the tile's owned box is the halo the
		// tile recomputes (the paper's redundant computation, Section 3.4,
		// measured rather than estimated).
		own := w.owned(ge, i, idx)
		own = intersectInto(own, own, box)
		e.p.computeStage(w, ls, box, sc, box.Size()-own.Size(), rowsOf(box)-rowsOf(own))
		if ge.liveOut[i] && !own.Empty() {
			outputs[ls.name].CopyRegion(sc, own)
		}
	}
}

// reqBoxes returns the worker's required-region boxes for ge's plan, one
// per member, allocated on first use.
func (w *worker) reqBoxes(ge *groupExec) []affine.Box {
	req := w.req[ge.id]
	if req == nil {
		req = ge.tp.MemberBoxes()
		w.req[ge.id] = req
	}
	return req
}

// owned computes member i's owned box of tile idx into the worker's ownBox
// scratch.
func (w *worker) owned(ge *groupExec, i int, idx []int64) affine.Box {
	w.ownBox = growBox(w.ownBox, len(ge.members[i].dom))
	ge.tp.OwnedInto(w.ownBox, i, idx)
	return w.ownBox
}

// computeStage is computeRegion plus kernel metrics: when the worker
// carries a shard it records the span, the points/rows evaluated and the
// recomputed portion (recPts/recRows: work outside the tile's owned box).
// With metrics off this is one nil check in front of computeRegion.
func (p *Program) computeStage(w *worker, ls *loweredStage, region affine.Box, out *Buffer, recPts, recRows int64) {
	if w.shard == nil {
		p.computeRegion(w, ls, region, out)
		return
	}
	t0 := obs.Now()
	p.computeRegion(w, ls, region, out)
	w.shard.StageKernel(ls.id, obs.Now()-t0, region.Size(), recPts, rowsOf(region), recRows)
}

// rowsOf counts the rows of a box: the product of all extents except the
// innermost (a rank-1 box is one row).
func rowsOf(b affine.Box) int64 {
	if len(b) == 0 {
		return 0
	}
	last := b[len(b)-1].Size()
	if last <= 0 {
		return 0
	}
	return b.Size() / last
}

// computeRegion evaluates a stage over region into out, one case piece at a
// time: each piece iterates only its sub-box, keeping the inner loop
// branch-free, on its generated kernel when one is bound and on the row VM
// otherwise (a piece with a residual predicate masks it per element).
func (p *Program) computeRegion(w *worker, ls *loweredStage, region affine.Box, out *Buffer) {
	for pi := range ls.pieces {
		piece := &ls.pieces[pi]
		r := intersectInto(w.iBox, region, piece.box)
		w.iBox = r
		if r.Empty() {
			continue
		}
		if piece.gen != nil {
			p.genLoop(w, piece.gen, r, out)
			continue
		}
		vmLoop(w, piece.vm, r, out)
	}
}

// growI64 returns s resized to n elements, reallocating only on growth.
func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// intersectInto writes the intersection of a and b into dst's storage
// (grown as needed), keeping the per-piece hot path allocation-free.
func intersectInto(dst, a, b affine.Box) affine.Box {
	if cap(dst) < len(a) {
		dst = make(affine.Box, len(a))
	}
	dst = dst[:len(a)]
	for d := range a {
		dst[d] = a[d].Intersect(b[d])
	}
	return dst
}

// odometer starts pt at the first point of the non-empty box r and returns
// pt[:len(r)]; step then walks it.
func odometer(pt []int64, r affine.Box) []int64 {
	pt = pt[:len(r)]
	for d := range r {
		pt[d] = r[d].Lo
	}
	return pt
}

// step advances the odometer pt over the first n dimensions of r, the
// last of them fastest, and reports false once it has passed the last
// point. A row loop steps n = rank−1 dimensions, once per row; a point
// sweep steps all of them, once per point.
func step(pt []int64, r affine.Box, n int) bool {
	for d := n - 1; d >= 0; d-- {
		pt[d]++
		if pt[d] <= r[d].Hi {
			return true
		}
		pt[d] = r[d].Lo
	}
	return false
}

// vmLoop drives the row bytecode program over a region: one program
// execution per row, over the register type lowering chose, stored straight
// into the output buffer. There is no per-row bookkeeping: the VM's register
// file is preallocated and value numbering already shares repeated subtrees
// within the program.
func vmLoop(w *worker, vm *rowVM, r affine.Box, out *Buffer) {
	last := len(r) - 1
	c := &w.ctx
	c.last = last
	c.n = int(r[last].Size())
	c.jLo = r[last].Lo
	pt := odometer(c.pt, r)
	for {
		off := out.Offset(pt)
		switch vm.set {
		case setF32:
			storeRow(out, off, evalRow[float32](vm, c))
		case setInt:
			storeRow(out, off, evalRow[int64](vm, c))
		default:
			storeRow(out, off, evalRow[float64](vm, c))
		}
		if !step(pt, r, last) {
			return
		}
	}
}

// runSelfRef executes a self-referencing (time-iterated) stage in
// lexicographic order, which respects the dependence on earlier values: a
// whole row at a time when every self-read is carried by an outer
// dimension, else a point at a time.
func (e *Executor) runSelfRef(rc *runCtx, ls *loweredStage, out *Buffer) error {
	if out == nil {
		return fmt.Errorf("engine: no output buffer for %s", ls.name)
	}
	w := rc.w
	rc.bind(w)
	w.ctx.bufs[ls.slot] = out
	if w.shard != nil {
		t0 := obs.Now()
		defer func() {
			w.shard.StageKernel(ls.id, obs.Now()-t0, ls.dom.Size(), 0, rowsOf(ls.dom), 0)
		}()
	}
	e.p.selfRefSweep(w, ls, out)
	return nil
}

// selfRefSweep computes ls over its domain one box at a time in
// lexicographic order: a row (the innermost dimension whole) when ls.rows,
// a single point otherwise. The box is its own odometer over the fixed
// dimensions.
func (p *Program) selfRefSweep(w *worker, ls *loweredStage, out *Buffer) {
	if ls.dom.Empty() {
		return
	}
	fixed := len(ls.dom)
	if ls.rows {
		fixed--
	}
	r := cloneBoxInto(w.region, ls.dom)
	w.region = r
	for d := range fixed {
		r[d].Hi = r[d].Lo
	}
	for {
		p.computeRegion(w, ls, r, out)
		d := fixed - 1
		for ; d >= 0 && r[d].Lo == ls.dom[d].Hi; d-- {
			r[d] = affine.Range{Lo: ls.dom[d].Lo, Hi: ls.dom[d].Lo}
		}
		if d < 0 {
			return
		}
		r[d].Lo++
		r[d].Hi++
	}
}

// runAccumulator sweeps the reduction domain, applying the update rule.
// With multiple threads and a small output, workers reduce into private
// copies merged at the end (the histogram parallelization the paper's
// OpenMP code uses); otherwise the sweep is sequential. The private copies
// come from the arena, so repeated runs reuse their storage.
func (e *Executor) runAccumulator(rc *runCtx, ls *loweredStage, out *Buffer) error {
	if out == nil {
		return fmt.Errorf("engine: no output buffer for %s", ls.name)
	}
	p := e.p
	out.Fill(float32(ls.accOp.Identity()))
	threads := e.threads
	red := ls.redDom
	if red.Empty() {
		return nil
	}
	split := 0
	parallel := threads > 1 && out.Len() <= 1<<22 && len(red) > 0 && red[split].Size() >= int64(threads)
	if !parallel {
		w := rc.w
		rc.bind(w)
		p.accumulateStage(w, ls, red, out)
		return nil
	}
	parts := make([]*Buffer, threads)
	n := red[split].Size()
	var nextPart atomic.Int64
	err := e.parallel(rc, threads, func(w *worker, fe *firstErr) {
		rc.bind(w)
		for {
			t := nextPart.Add(1) - 1
			if t >= int64(threads) || fe.isSet() {
				return
			}
			part := e.arena.get(out.Box, out.Elem)
			part.Fill(float32(ls.accOp.Identity()))
			parts[t] = part
			region := cloneBoxInto(w.region, red)
			w.region = region
			region[split] = affine.Range{
				Lo: red[split].Lo + t*n/int64(threads),
				Hi: red[split].Lo + (t+1)*n/int64(threads) - 1,
			}
			p.accumulateStage(w, ls, region, part)
		}
	})
	if err != nil {
		return err
	}
	for _, part := range parts {
		if part == nil {
			continue
		}
		for i, v := range part.Data {
			out.Data[i] = applyReduce(ls.accOp, out.Data[i], v)
		}
		e.arena.put(part)
	}
	return nil
}

// accumulateStage is accumulateRegion behind the same metrics gate as
// computeStage: points recorded are the reduction-domain points swept (not
// output elements), and nothing is ever counted as recomputed.
func (p *Program) accumulateStage(w *worker, ls *loweredStage, region affine.Box, out *Buffer) {
	var t0 int64
	if w.shard != nil {
		t0 = obs.Now()
	}
	p.accumulateRegion(w, ls, region, out)
	if w.shard != nil {
		w.shard.StageKernel(ls.id, obs.Now()-t0, region.Size(), 0, rowsOf(region), 0)
	}
}

func (p *Program) accumulateRegion(w *worker, ls *loweredStage, region affine.Box, out *Buffer) {
	if ls.accGen != nil {
		p.genLoop(w, ls.accGen, region, out)
		return
	}
	p.accumulateRows(w, ls, region, out)
}

// accumulateRows sweeps the reduction domain a row at a time. Per row the
// accumulator's program computes every target index row and the value row;
// the targets are folded into a per-worker row of flat output offsets, with
// the reference's per-dimension skip (a skipped point's offset is -1), or
// under Debug a panic; the value row is then scattered left to right, so
// every output element sees the same updates in the same order and sums are
// bit-identical. The value is evaluated at skipped points too, which the
// reference does not do: a data-dependent read in it must stay inside its
// buffer over the whole reduction domain.
func (p *Program) accumulateRows(w *worker, ls *loweredStage, region affine.Box, out *Buffer) {
	last := len(region) - 1
	c := &w.ctx
	c.last = last
	c.n = int(region[last].Size())
	c.jLo = region[last].Lo
	pt := odometer(c.pt, region)
	w.accOffs = growI64(w.accOffs, c.n)
	offs := w.accOffs
	for {
		for i := range offs {
			offs[i] = 0
		}
		val := evalRow[float64](ls.accVM, c)
		for d, r := range ls.accVM.targets {
			lo, hi, stride := out.Box[d].Lo, out.Box[d].Hi, out.Stride[d]
			for i, v := range c.vm.f64[r][:c.n] {
				x := int64(v)
				switch {
				case offs[i] < 0:
				case x >= lo && x <= hi:
					offs[i] += (x - lo) * stride
				case p.Opts.Debug:
					p.accOutside(ls, c, out, d, i)
				default:
					offs[i] = -1
				}
			}
		}
		for i, v := range val {
			if off := offs[i]; off >= 0 {
				out.Data[off] = applyReduce(ls.accOp, out.Data[off], float32(v))
			}
		}
		if !step(pt, region, last) {
			return
		}
	}
}

// accOutside is Debug's accumulator check failing: target dimension d of
// element i of the current row lies outside out. The message carries the
// target's indices up to d, read from their index rows.
func (p *Program) accOutside(ls *loweredStage, c *RowCtx, out *Buffer, d, i int) {
	idx := make([]int64, d+1)
	for k := range idx {
		idx[k] = int64(c.vm.f64[ls.accVM.targets[k]][i])
	}
	pt := c.pt[:c.last+1]
	pt[c.last] = c.jLo + int64(i)
	panic(fmt.Sprintf("engine: accumulator %s target %v outside %v at %v", ls.name, idx, out.Box, pt))
}

func applyReduce(op dsl.ReduceOp, a, b float32) float32 {
	switch op {
	case dsl.SumOp:
		return a + b
	case dsl.MinOp:
		if b < a {
			return b
		}
		return a
	case dsl.MaxOp:
		if b > a {
			return b
		}
		return a
	case dsl.MulOp:
		return a * b
	}
	return a
}
