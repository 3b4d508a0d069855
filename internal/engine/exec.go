package engine

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/obs"
	"repro/internal/schedule"
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

// runGroup dispatches one group: dirty-rectangle frames (a stream run with
// an ROI) go through the partial-recompute path; everything else runs the
// normal full evaluation.
func (e *Executor) runGroup(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) error {
	if fc := rc.fc; fc != nil && !fc.full {
		return e.runGroupDirty(rc, ge, outputs)
	}
	return e.runGroupAll(rc, ge, outputs)
}

func (e *Executor) runGroupAll(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) error {
	if len(ge.members) == 1 {
		ls := ge.members[0]
		switch {
		case ls.isAcc:
			return e.runAccumulator(rc, ls, outputs[ls.name])
		case ls.selfRef:
			return e.runSelfRef(rc, ls, outputs[ls.name])
		default:
			return e.runSingle(rc, ls, outputs[ls.name])
		}
	}
	switch e.p.Opts.Tiling {
	case ParallelogramTiling:
		return e.runParallelogram(rc, ge, outputs)
	case SplitTiling:
		return e.runSplit(rc, ge, outputs)
	}
	return e.runTiled(rc, ge, outputs)
}

// runSingle executes an untiled single-stage group: the stage's domain is
// computed into its full buffer, parallelized by slicing the outermost
// dimension with extent > 1 across workers (the paper's per-stage OpenMP
// parallel loop for ungrouped stages).
func (e *Executor) runSingle(rc *runCtx, ls *loweredStage, out *Buffer) error {
	if out == nil {
		return fmt.Errorf("engine: no output buffer for %s", ls.name)
	}
	threads := e.threads
	// Pick the split dimension: the outermost with extent > 1.
	split := -1
	for d := range ls.dom {
		if ls.dom[d].Size() > 1 {
			split = d
			break
		}
	}
	if threads > 1 && (split < 0 || ls.dom[split].Size() < 2) {
		threads = 1
	}
	n := int64(0)
	chunks := int64(1)
	if threads > 1 {
		n = ls.dom[split].Size()
		chunks = int64(threads * 4)
		if chunks > n {
			chunks = n
		}
	}
	var next atomic.Int64
	return e.parallel(rc, threads, func(w *worker, fe *firstErr) {
		rc.bind(w)
		if threads <= 1 {
			e.p.computeStageObs(w, ls, ls.dom, out, 0, 0)
			return
		}
		for {
			c := next.Add(1) - 1
			if c >= chunks || fe.isSet() {
				return
			}
			lo := ls.dom[split].Lo + c*n/chunks
			hi := ls.dom[split].Lo + (c+1)*n/chunks - 1
			region := cloneBoxInto(w.region, ls.dom)
			w.region = region
			region[split] = affine.Range{Lo: lo, Hi: hi}
			e.p.computeStageObs(w, ls, region, out, 0, 0)
		}
	})
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

// runTiled executes a fused group with overlapped tiling: tiles are
// independent (the halo is recomputed), so they are distributed over the
// worker pool as a bag of tasks; intermediates live in per-worker
// scratchpads that are reused across tiles, groups and runs (Section 3.6).
func (e *Executor) runTiled(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) error {
	tp := ge.tp
	numTiles := tp.NumTiles()
	threads := e.threads
	if int64(threads) > numTiles {
		threads = int(numTiles)
	}
	var next atomic.Int64
	return e.parallel(rc, threads, func(w *worker, fe *firstErr) {
		rc.bind(w)
		w.tileIdx = growI64(w.tileIdx, len(tp.TileCounts))
		idx := w.tileIdx
		for {
			t := next.Add(1) - 1
			if t >= numTiles || fe.isSet() {
				return
			}
			tp.TileIndex(t, idx)
			if err := e.runTile(w, ge, tp, idx, outputs); err != nil {
				fe.set(err)
				return
			}
		}
	})
}

// runTile computes tile idx of plan tp: every member over its required
// region, the anchor straight into its full buffer (its required region is
// exactly its owned tile), the others into the worker's scratchpads, from
// which live-outs copy their owned boxes.
func (e *Executor) runTile(w *worker, ge *groupExec, tp *schedule.TilePlan, idx []int64, outputs map[string]*Buffer) error {
	var err error
	w.req, err = tp.Required(idx, w.req)
	if err != nil {
		return err
	}
	if w.shard != nil {
		w.shard.Tile(ge.id)
	}
	for i, ls := range ge.members {
		box := w.req[ls.name]
		if box == nil || box.Empty() {
			continue
		}
		isAnchor := ls.name == ge.grp.Anchor
		out := outputs[ls.name]
		if !isAnchor {
			sc, ok := w.scratch[ls.name]
			if !ok {
				sc = &Buffer{}
				w.scratch[ls.name] = sc
			}
			sc.ResetElem(box, ls.elem)
			out = sc
		}
		w.ctx.bufs[ls.slot] = out
		if w.shard == nil {
			e.p.computeStage(w, ls, box, out)
		} else {
			var recPts, recRows int64
			if !isAnchor {
				// Members other than the anchor recompute the halo outside
				// their owned box.
				recPts, recRows = w.recomputed(tp, ls.name, idx, box)
			}
			e.p.computeStageObs(w, ls, box, out, recPts, recRows)
		}
		if ge.liveOut[i] && !isAnchor {
			owned := tp.OwnedBox(ls.name, idx).Intersect(box)
			if !owned.Empty() {
				outputs[ls.name].CopyRegion(out, owned)
			}
		}
	}
	return nil
}

// computeStage evaluates a stage over region, attributing CPU samples to
// the stage via pprof labels when profiling is on (the label closure is
// only materialized on the profiled branch, so the default path allocates
// nothing).
func (p *Program) computeStage(w *worker, ls *loweredStage, region affine.Box, out *Buffer) {
	if ls.prof != nil {
		pprof.Do(context.Background(), *ls.prof, func(context.Context) {
			p.computeRegion(w, ls, region, out)
		})
		return
	}
	p.computeRegion(w, ls, region, out)
}

// computeStageObs is computeStage plus kernel metrics: when the worker
// carries a shard it records the span, the points/rows evaluated and the
// recomputed portion (recPts/recRows: work outside the tile's owned box).
// With metrics off this is one nil check in front of computeStage.
func (p *Program) computeStageObs(w *worker, ls *loweredStage, region affine.Box, out *Buffer, recPts, recRows int64) {
	if w.shard == nil {
		p.computeStage(w, ls, region, out)
		return
	}
	t0 := obs.Now()
	p.computeStage(w, ls, region, out)
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

// recomputed measures the overlap-halo portion of box: the points and rows
// outside the tile's owned region of member m — the paper's redundant
// computation (Section 3.4), measured rather than estimated. Uses the
// worker's statBox scratch so the metrics path allocates nothing.
func (w *worker) recomputed(tp *schedule.TilePlan, m string, idx []int64, box affine.Box) (recPts, recRows int64) {
	if len(box) == 0 {
		return 0, 0
	}
	owned := w.statBox
	if cap(owned) < len(box) {
		owned = make(affine.Box, len(box))
	}
	owned = owned[:len(box)]
	w.statBox = owned
	tp.OwnedBoxInto(owned, m, idx)
	ownedPts, ownedRows := int64(1), int64(1)
	for d := range box {
		sz := owned[d].Intersect(box[d]).Size()
		if sz <= 0 {
			ownedPts, ownedRows = 0, 0
			break
		}
		ownedPts *= sz
		if d < len(box)-1 {
			ownedRows *= sz
		}
	}
	return box.Size() - ownedPts, rowsOf(box) - ownedRows
}

// computeRegion evaluates a stage over region into out, one case piece at a
// time (pieces with box conditions iterate only their sub-box, keeping the
// inner loop branch-free; pieces with residual predicates test per point).
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
		if piece.vm != nil {
			vmLoop(w, piece.vm, r, out)
			continue
		}
		p.scalarLoop(w, piece, r, out)
	}
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

// vmLoop drives the row bytecode program over a region: one program
// execution per row, over the register type lowering chose, stored straight
// into the output buffer. There is no per-row bookkeeping: the VM's register
// file is preallocated and value numbering already shares repeated subtrees
// within the program.
func vmLoop(w *worker, vm *rowVM, r affine.Box, out *Buffer) {
	nd := len(r)
	last := nd - 1
	c := &w.ctx
	c.last = last
	c.n = int(r[last].Size())
	c.jLo = r[last].Lo
	pt := c.pt[:nd]
	for d := 0; d < nd; d++ {
		pt[d] = r[d].Lo
	}
	for {
		pt[last] = r[last].Lo
		off := out.Offset(pt)
		switch vm.set {
		case setF32:
			storeRow(out, off, evalRow[float32](vm, c))
		case setInt:
			storeRow(out, off, evalRow[int64](vm, c))
		default:
			storeRow(out, off, evalRow[float64](vm, c))
		}
		d := last - 1
		for ; d >= 0; d-- {
			pt[d]++
			if pt[d] <= r[d].Hi {
				break
			}
			pt[d] = r[d].Lo
		}
		if d < 0 {
			return
		}
	}
}

func (p *Program) scalarLoop(w *worker, piece *loweredPiece, r affine.Box, out *Buffer) {
	nd := len(r)
	last := nd - 1
	c := &w.ctx.Ctx
	pt := c.pt[:nd]
	for d := 0; d < nd; d++ {
		pt[d] = r[d].Lo
	}
	narrow := out.Elem != ElemF32
	for {
		for j := r[last].Lo; j <= r[last].Hi; j++ {
			pt[last] = j
			if piece.pred != nil && !piece.pred(c) {
				continue
			}
			if narrow {
				out.StoreF64(out.Offset(pt), piece.eval(c))
			} else {
				out.Data[out.Offset(pt)] = float32(piece.eval(c))
			}
		}
		d := last - 1
		for ; d >= 0; d-- {
			pt[d]++
			if pt[d] <= r[d].Hi {
				break
			}
			pt[d] = r[d].Lo
		}
		if d < 0 {
			return
		}
	}
}

// runSelfRef executes a self-referencing (time-iterated) stage in
// lexicographic order, which respects the dependence on earlier values.
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
	if ls.prof != nil {
		pprof.Do(context.Background(), *ls.prof, func(context.Context) { e.selfRefLoop(w, ls, out) })
		return nil
	}
	e.selfRefLoop(w, ls, out)
	return nil
}

func (e *Executor) selfRefLoop(w *worker, ls *loweredStage, out *Buffer) {
	c := &w.ctx.Ctx
	nd := len(ls.dom)
	pt := c.pt[:nd]
	for d := 0; d < nd; d++ {
		pt[d] = ls.dom[d].Lo
	}
	if ls.dom.Empty() {
		return
	}
	for {
		for pi := range ls.pieces {
			piece := &ls.pieces[pi]
			if !piece.box.Contains(pt) {
				continue
			}
			if piece.pred != nil && !piece.pred(c) {
				continue
			}
			out.Data[out.Offset(pt)] = float32(piece.eval(c))
			break
		}
		d := nd - 1
		for ; d >= 0; d-- {
			pt[d]++
			if pt[d] <= ls.dom[d].Hi {
				break
			}
			pt[d] = ls.dom[d].Lo
		}
		if d < 0 {
			return
		}
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

// accumulateStage is accumulateRegion behind the same metrics/profiling
// gates as computeStage: points recorded are the reduction-domain points
// swept (not output elements), and nothing is ever counted as recomputed.
func (p *Program) accumulateStage(w *worker, ls *loweredStage, region affine.Box, out *Buffer) {
	var t0 int64
	if w.shard != nil {
		t0 = obs.Now()
	}
	if ls.prof != nil {
		pprof.Do(context.Background(), *ls.prof, func(context.Context) {
			p.accumulateRegion(w, ls, region, out)
		})
	} else {
		p.accumulateRegion(w, ls, region, out)
	}
	if w.shard != nil {
		w.shard.StageKernel(ls.id, obs.Now()-t0, region.Size(), 0, rowsOf(region), 0)
	}
}

func (p *Program) accumulateRegion(w *worker, ls *loweredStage, region affine.Box, out *Buffer) {
	switch {
	case ls.accGen != nil:
		p.genLoop(w, ls.accGen, region, out)
		return
	case ls.accValVM != nil:
		p.accumulateRows(w, ls, region, out)
		return
	}
	c := &w.ctx.Ctx
	nd := len(region)
	pt := c.pt[:nd]
	for d := 0; d < nd; d++ {
		pt[d] = region[d].Lo
	}
	w.accIdx = growI64(w.accIdx, len(ls.accIdx))
	idx := w.accIdx
	for {
		ok := true
		for d, f := range ls.accIdx {
			idx[d] = f(c)
			if idx[d] < out.Box[d].Lo || idx[d] > out.Box[d].Hi {
				if p.Opts.Debug {
					panic(fmt.Sprintf("engine: accumulator %s target %v outside %v at %v", ls.name, idx, out.Box, pt))
				}
				ok = false
				break
			}
		}
		if ok {
			v := ls.accVal(c)
			off := out.Offset(idx)
			out.Data[off] = applyReduce(ls.accOp, out.Data[off], float32(v))
		}
		d := nd - 1
		for ; d >= 0; d-- {
			pt[d]++
			if pt[d] <= region[d].Hi {
				break
			}
			pt[d] = region[d].Lo
		}
		if d < 0 {
			return
		}
	}
}

// accumulateRows is the Fast form of the sweep. Per row of the reduction
// domain each target index is evaluated by its row program and folded into a
// per-worker row of flat output offsets, with the scalar sweep's
// per-dimension skip-or-Debug-panic check (a skipped point's offset is -1);
// the value row is then scattered left to right, so every output element
// sees the same updates in the same order and sums are bit-identical. The
// value is evaluated at skipped points too, which the scalar sweep does not
// do: a data-dependent read in it must stay inside its buffer over the whole
// reduction domain.
func (p *Program) accumulateRows(w *worker, ls *loweredStage, region affine.Box, out *Buffer) {
	nd := len(region)
	last := nd - 1
	c := &w.ctx
	c.last = last
	c.n = int(region[last].Size())
	c.jLo = region[last].Lo
	pt := c.pt[:nd]
	for d := 0; d < nd; d++ {
		pt[d] = region[d].Lo
	}
	w.accIdx = growI64(w.accIdx, c.n)
	offs := w.accIdx
	for {
		pt[last] = region[last].Lo
		for i := range offs {
			offs[i] = 0
		}
		for d, vm := range ls.accIdxVM {
			lo, hi, stride := out.Box[d].Lo, out.Box[d].Hi, out.Stride[d]
			for i, v := range evalRow[float64](vm, c) {
				x := int64(v)
				switch {
				case offs[i] < 0:
				case x >= lo && x <= hi:
					offs[i] += (x - lo) * stride
				case p.Opts.Debug:
					pt[last] = region[last].Lo + int64(i)
					idx := make([]int64, d+1)
					for k := range idx {
						idx[k] = ls.accIdx[k](&c.Ctx)
					}
					panic(fmt.Sprintf("engine: accumulator %s target %v outside %v at %v", ls.name, idx, out.Box, pt))
				default:
					offs[i] = -1
				}
			}
		}
		for i, v := range evalRow[float64](ls.accValVM, c) {
			if off := offs[i]; off >= 0 {
				out.Data[off] = applyReduce(ls.accOp, out.Data[off], float32(v))
			}
		}
		d := last - 1
		for ; d >= 0; d-- {
			pt[d]++
			if pt[d] <= region[d].Hi {
				break
			}
			pt[d] = region[d].Lo
		}
		if d < 0 {
			return
		}
	}
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
