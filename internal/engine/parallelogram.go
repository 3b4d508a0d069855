package engine

import "repro/internal/schedule"

// Parallelogram tiling is the alternative strategy of Section 3.2 /
// Figure 5: tiles are skewed by the dependence slopes so no values are
// recomputed, but a tile depends on its predecessor — "wavefront
// parallelism, which effectively reduces to sequential execution of the
// tiles due to the small number of functions relative to the spatial tile
// size" — and intermediates must live in full buffers because values cross
// tile boundaries. The engine implements it to reproduce the trade-off
// table of Figure 5:
//
//	            parallelism   locality   redundancy
//	overlapped      yes          yes         yes
//	parallelogram   no           yes         no
//
// Execution: tiles of the group's single tiled dimension run sequentially;
// for every member, the region a tile would compute is trimmed against the
// high-water mark left by earlier tiles (the implicit skew), so each value
// is computed exactly once, into a full buffer.

// TilingStrategy selects how fused groups execute.
type TilingStrategy int

const (
	// OverlappedTiling is the paper's main strategy (default).
	OverlappedTiling TilingStrategy = iota
	// ParallelogramTiling runs fused groups as sequential skewed tiles
	// with full-buffer intermediates and no redundant computation.
	ParallelogramTiling
	// SplitTiling runs fused groups in two phases (independent upward
	// trapezoids, then boundary fill) with full-buffer intermediates and
	// no redundant computation.
	SplitTiling
)

// runParallelogram executes a fused group with parallelogram tiling.
func (e *Executor) runParallelogram(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) error {
	p := e.p
	// Restrict to one tiled dimension: keep the outermost tiled dim of the
	// overlapped plan, untile the rest (the skewed-prefix trimming is
	// one-dimensional).
	grp := *ge.grp
	grp.TileSizes = append([]int64(nil), ge.grp.TileSizes...)
	tiledDim := -1
	for d, ts := range grp.TileSizes {
		if ts > 0 && tiledDim < 0 {
			tiledDim = d
		} else {
			grp.TileSizes[d] = 0
		}
	}
	tp, err := schedule.NewTilePlan(p.Graph, &grp, p.Params)
	if err != nil {
		return err
	}
	if tiledDim < 0 {
		// Nothing to tile: fall back to straight-line group execution.
		tiledDim = 0
	}

	w := rc.w
	rc.bind(w)

	// Full buffers for every member; live-outs use the allocated outputs,
	// intermediates come from the arena and recycle after the group.
	full := make([]*Buffer, len(ge.members))
	var scratch []*Buffer
	for i, ls := range ge.members {
		if ge.liveOut[i] {
			full[i] = outputs[ls.name]
		} else {
			full[i] = e.arena.get(ls.dom, ls.elem)
			scratch = append(scratch, full[i])
		}
		w.ctx.bufs[ls.slot] = full[i]
	}
	defer func() {
		for _, buf := range scratch {
			e.arena.put(buf)
		}
	}()

	// Which dimension of each member tracks the tiled anchor dimension?
	trimDim := make([]int, len(ge.members))
	for i, ls := range ge.members {
		trimDim[i] = -1
		for d, ds := range ge.grp.Scales[ls.name] {
			if ds.AnchorDim == tiledDim {
				trimDim[i] = d
				break
			}
		}
	}

	hw := make([]int64, len(ge.members)) // high-water mark per member
	for i := range hw {
		hw[i] = int64(-1) << 62
	}
	idx := make([]int64, len(tp.TileCounts))
	req := tp.MemberBoxes()
	n := tp.NumTiles()
	for t := int64(0); t < n; t++ {
		tp.TileIndex(t, idx)
		if err := tp.RequiredInto(idx, req); err != nil {
			return err
		}
		for i, ls := range ge.members {
			// The next RequiredInto rewrites the box: trim it in place.
			region := req[i]
			if region.Empty() {
				continue
			}
			if td := trimDim[i]; td >= 0 {
				if region[td].Lo <= hw[i] {
					region[td].Lo = hw[i] + 1
				}
				if region[td].Hi > hw[i] {
					hw[i] = region[td].Hi
				}
			} else {
				// Unaligned members have the same region in every tile:
				// compute once.
				if hw[i] == 1 {
					continue
				}
				hw[i] = 1
			}
			if region.Empty() {
				continue
			}
			p.computeStage(w, ls, region, full[i], 0, 0)
		}
	}
	return nil
}
