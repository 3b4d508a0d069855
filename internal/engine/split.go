package engine

import (
	"sort"
	"sync/atomic"

	"repro/internal/affine"
	"repro/internal/schedule"
)

// Split tiling is the second alternative strategy of Section 3.2 /
// Figure 5: the iteration space is evaluated in two phases. Phase 1
// computes, per tile, the "upward-pointing" trapezoid — the sub-region of
// every stage whose inputs lie entirely within the same tile's phase-1
// regions, so phase-1 tiles are independent and run in parallel with NO
// redundant computation. Phase 2 fills the remaining inter-tile gaps,
// consuming the values phase 1 left at the tile boundaries — which is why
// those values "have to be kept live for consumption in the second phase":
// intermediates need full buffers, the storage cost that makes overlapped
// tiling preferable for image pipelines (Sections 3.2 and 5).
//
// Phase-1 regions are derived exactly by inverting the in-group accesses
// (affine.Access.InverseRange) instead of assuming uniform slopes, the same
// heterogeneity-aware treatment the overlapped-tile construction gets from
// interval propagation.

// runSplit executes a fused group with split tiling along its outermost
// tiled dimension.
func (e *Executor) runSplit(rc *runCtx, ge *groupExec, outputs map[string]*Buffer) error {
	p := e.p
	// Single tiled dimension, as for parallelogram tiling.
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
	// Total required region per member: propagate with one whole-domain
	// tile.
	whole := grp
	whole.TileSizes = make([]int64, len(grp.TileSizes))
	wtp, err := schedule.NewTilePlan(p.Graph, &whole, p.Params)
	if err != nil {
		return err
	}
	total := wtp.MemberBoxes()
	if err := wtp.RequiredInto(make([]int64, len(wtp.TileCounts)), total); err != nil {
		return err
	}

	full := make([]*Buffer, len(ge.members))
	var scratch []*Buffer
	for i, ls := range ge.members {
		if ge.liveOut[i] {
			full[i] = outputs[ls.name]
		} else {
			full[i] = e.arena.get(ls.dom, ls.elem)
			scratch = append(scratch, full[i])
		}
	}
	defer func() {
		for _, buf := range scratch {
			e.arena.put(buf)
		}
	}()

	trimDim := make([]int, len(ge.members))
	for i, ls := range ge.members {
		trimDim[i] = -1
		if tiledDim >= 0 {
			for d, ds := range ge.grp.Scales[ls.name] {
				if ds.AnchorDim == tiledDim {
					trimDim[i] = d
					break
				}
			}
		}
	}

	w := rc.w
	rc.bind(w)
	for i, ls := range ge.members {
		w.ctx.bufs[ls.slot] = full[i]
	}

	numTiles := tp.NumTiles()
	// Phase 1: per tile, per member (topo order), the largest sub-interval
	// whose in-group reads stay inside the same tile's phase-1 regions.
	// cur[i] is member i's phase-1 interval in this tile, when cut[i].
	phase1 := make([][]affine.Range, len(ge.members))
	cur := make([]affine.Range, len(ge.members))
	cut := make([]bool, len(ge.members))
	own := tp.MemberBoxes()
	idx := make([]int64, len(tp.TileCounts))
	for t := int64(0); t < numTiles; t++ {
		tp.TileIndex(t, idx)
		clear(cut)
		for i, ls := range ge.members {
			td := trimDim[i]
			if td < 0 {
				// Unaligned members: compute fully with the first tile.
				if t == 0 && !total[i].Empty() {
					p.computeStage(w, ls, total[i], full[i], 0, 0)
				}
				continue
			}
			if total[i].Empty() {
				continue
			}
			// Start from the tile's owned interval along the trim dim.
			tp.OwnedInto(own[i], i, idx)
			r := own[i][td]
			// Shrink by inverting every in-group access against the
			// producer's phase-1 interval for this tile.
			for _, ma := range tp.InGroupAccesses(i) {
				if !ma.OK {
					r = affine.Range{Lo: 0, Hi: -1} // cannot split: no phase-1 region
					break
				}
				ptd := trimDim[ma.Target]
				if ma.Acc.Var < 0 {
					// Constant index: if it lands on the producer's tiled
					// dimension it must lie inside this tile's phase-1
					// interval; otherwise it is unconstrained.
					if ma.ProducerDim == ptd && ptd >= 0 {
						v := ma.Acc.At(nil, p.Params)
						if !cut[ma.Target] || !cur[ma.Target].Contains(v) {
							r = affine.Range{Lo: 0, Hi: -1}
							break
						}
					}
					continue
				}
				if ma.Acc.Var != td || ptd < 0 || ma.ProducerDim != ptd {
					// Access does not involve the tiled dimension pair;
					// other dims are fully materialized, no constraint.
					if ma.Acc.Var == td && ma.ProducerDim != ptd {
						// Tiled consumer var feeding an untiled producer
						// dim: conservative, no phase-1 region.
						r = affine.Range{Lo: 0, Hi: -1}
					}
					continue
				}
				if !cut[ma.Target] {
					r = affine.Range{Lo: 0, Hi: -1}
					break
				}
				inv, bounded, err := ma.Acc.InverseRange(cur[ma.Target], p.Params)
				if err != nil {
					return err
				}
				if !bounded && inv.Empty() {
					r = affine.Range{Lo: 0, Hi: -1}
					break
				}
				r = r.Intersect(inv)
			}
			r = r.Intersect(total[i][td])
			cur[i], cut[i] = r, true
			if r.Empty() {
				continue
			}
			region := total[i].Clone()
			region[td] = r
			atomic.AddInt64(&p.SplitStats.Phase1, region.Size())
			p.computeStage(w, ls, region, full[i], 0, 0)
			phase1[i] = append(phase1[i], r)
		}
	}

	// Phase 2: fill the gaps between phase-1 intervals (members in topo
	// order so producers' gaps are complete before consumers read them).
	for i, ls := range ge.members {
		td := trimDim[i]
		if td < 0 || total[i].Empty() {
			continue
		}
		for _, gap := range intervalGaps(total[i][td], phase1[i]) {
			region := total[i].Clone()
			region[td] = gap
			atomic.AddInt64(&p.SplitStats.Phase2, region.Size())
			p.computeStage(w, ls, region, full[i], 0, 0)
		}
	}
	return nil
}

// intervalGaps returns the sub-intervals of total not covered by the given
// (disjoint) intervals.
func intervalGaps(total affine.Range, covered []affine.Range) []affine.Range {
	cs := make([]affine.Range, 0, len(covered))
	for _, c := range covered {
		if !c.Empty() {
			cs = append(cs, c.Intersect(total))
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Lo < cs[j].Lo })
	var gaps []affine.Range
	next := total.Lo
	for _, c := range cs {
		if c.Empty() {
			continue
		}
		if c.Lo > next {
			gaps = append(gaps, affine.Range{Lo: next, Hi: c.Lo - 1})
		}
		if c.Hi+1 > next {
			next = c.Hi + 1
		}
	}
	if next <= total.Hi {
		gaps = append(gaps, affine.Range{Lo: next, Hi: total.Hi})
	}
	return gaps
}
