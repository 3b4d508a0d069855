package schedule

import (
	"fmt"
	"math"
	"repro/internal/affine"
	"sort"

	"repro/internal/pipeline"
)

// BuildGroups runs Algorithm 1 of the paper: starting with one group per
// stage, it repeatedly merges a group into its single child group when the
// stages can be aligned and scaled to constant dependence vectors and the
// estimated redundant computation (overlap as a fraction of the tile size)
// stays below the threshold.
func BuildGroups(g *pipeline.Graph, est map[string]int64, opts Options) (*Grouping, error) {
	opts = opts.withDefaults()
	if opts.Auto && !opts.DisableFusion {
		// Options.Auto swaps the threshold heuristic for the cost-model
		// search (search.go); DisableFusion keeps the trivial
		// partition, which the search could only reproduce.
		return SearchGroups(g, est, opts)
	}
	return buildGroups(newGraphInfo(g, est), opts)
}

// buildGroups is Algorithm 1 over the graph tables gi, with resolved options.
func buildGroups(gi *graphInfo, opts Options) (*Grouping, error) {
	g, est := gi.g, gi.params
	gr := &Grouping{
		ByName: make(map[string]*Group),
		Graph:  g,
		Est:    est,
	}
	nextID := 0
	for _, name := range g.Order {
		grp := &Group{ID: nextID, Members: []string{name}, Anchor: name}
		nextID++
		gr.Groups = append(gr.Groups, grp)
		gr.ByName[name] = grp
	}
	if !opts.DisableFusion {
		for {
			merged, err := tryMerge(gr, gi, opts, &nextID)
			if err != nil {
				return nil, err
			}
			if !merged {
				break
			}
		}
	}
	finalizeGroups(gr, est, opts)
	if err := orderGroups(gr); err != nil {
		return nil, err
	}
	return gr, nil
}

// tryMerge performs one iteration of Algorithm 1's repeat loop: it scans
// candidate groups (single child, mergeable) in decreasing size order and
// merges the first profitable one. Returns false when converged.
func tryMerge(gr *Grouping, gi *graphInfo, opts Options, nextID *int) (bool, error) {
	g := gr.Graph
	// Candidates: groups with exactly one child group (line 6).
	type cand struct {
		grp   *Group
		child *Group
		size  int64
	}
	var cands []cand
	for _, grp := range gr.Groups {
		children := childGroups(g, gr.ByName, grp)
		if len(children) != 1 {
			continue
		}
		if !mergeableGroup(gi, grp, opts, true) || !mergeableGroup(gi, children[0], opts, false) {
			continue
		}
		cands = append(cands, cand{grp: grp, child: children[0], size: gi.groupSize(grp.Members)})
	}
	// Sort by decreasing size (line 7); break ties deterministically.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].size != cands[j].size {
			return cands[i].size > cands[j].size
		}
		return cands[i].grp.Anchor < cands[j].grp.Anchor
	})
	for _, c := range cands {
		merged, ratios, scales, ok, err := evaluateMerge(gi, c.grp, c.child, opts)
		if err != nil {
			return false, err
		}
		if !ok {
			continue
		}
		// Perform the merge (lines 13-16).
		newGrp := &Group{
			ID:           *nextID,
			Members:      merged,
			Anchor:       c.child.Anchor,
			Scales:       scales,
			Tiled:        true,
			OverlapRatio: ratios,
		}
		*nextID++
		newGrp.TileSizes = effectiveTileSizes(gi.domain(newGrp.Anchor).box, opts)
		replaceGroups(gr, c.grp, c.child, newGrp)
		return true, nil
	}
	return false, nil
}

// mergeableGroup reports whether a group may participate in a merge at all:
// no accumulators, no self-referencing stages, and (for the parent side)
// not smaller than the minimum size.
func mergeableGroup(gi *graphInfo, grp *Group, opts Options, isParent bool) bool {
	for _, m := range grp.Members {
		st := gi.g.Stages[m]
		if st.IsAccumulator() || st.SelfRef {
			return false
		}
	}
	if isParent && gi.groupSize(grp.Members) < opts.MinSize {
		return false
	}
	return true
}

// evaluateMerge checks the two merge criteria of Algorithm 1 (lines 10-12):
// constant dependence vectors after alignment/scaling, and relative overlap
// below the threshold.
func evaluateMerge(gi *graphInfo, parent, child *Group, opts Options) (members []string, ratios []float64, scales map[string][]DimScale, ok bool, err error) {
	g := gi.g
	memberSet := make(map[string]bool, len(parent.Members)+len(child.Members))
	for _, m := range parent.Members {
		memberSet[m] = true
	}
	for _, m := range child.Members {
		memberSet[m] = true
	}
	anchor := child.Anchor
	scales, serr := computeScales(gi, memberSet, anchor)
	if serr != nil {
		return nil, nil, nil, false, nil // cannot align/scale: not mergeable
	}
	members = sortedMembers(g, memberSet)
	as := gi.domain(anchor)
	if as.err != nil {
		return nil, nil, nil, false, as.err
	}
	tileSizes := effectiveTileSizes(as.box, opts)
	tiled := false
	for _, ts := range tileSizes {
		if ts > 0 {
			tiled = true
		}
	}
	if !tiled {
		return nil, nil, nil, false, nil // nothing to tile: keep separate
	}
	trial := &Group{Members: members, Anchor: anchor, Scales: scales, Tiled: true, TileSizes: tileSizes}
	tp, perr := newTilePlan(gi, trial)
	if perr != nil {
		return nil, nil, nil, false, nil
	}
	ratios, rerr := estimateOverlap(tp, opts)
	if rerr != nil {
		return nil, nil, nil, false, nil
	}
	for _, r := range ratios {
		if r >= opts.OverlapThreshold {
			return nil, nil, nil, false, nil
		}
	}
	return members, ratios, scales, true, nil
}

// estimateOverlap computes, per anchor dimension, the redundant-computation
// fraction of an interior tile: for each member and aligned dimension, the
// required extent is mapped into the anchor's (common, scaled) space and
// compared against the tile size (Section 3.5: "the size of the overlapping
// region as a fraction of the tile size").
func estimateOverlap(tp *TilePlan, opts Options) ([]float64, error) {
	req := tp.MemberBoxes()
	if err := tp.RequiredInto(tp.interiorTile(), req); err != nil {
		return nil, err
	}
	ratios := make([]float64, len(tp.AnchorBox))
	for i, m := range tp.Group.Members {
		box := req[i]
		if box.Empty() {
			continue
		}
		for d, ds := range tp.members[i].scales {
			if ds.AnchorDim < 0 {
				if box[d].Size() > opts.MaxUnalignedExtent {
					return nil, fmt.Errorf("unaligned dimension of %s too wide (%d)", m, box[d].Size())
				}
				continue
			}
			ts := tp.TileSizes[ds.AnchorDim]
			if ts == 0 {
				continue // untiled dimension: no overlap
			}
			common := float64(box[d].Size()) / ds.Scale.Float()
			r := (common - float64(ts)) / float64(ts)
			if r > ratios[ds.AnchorDim] {
				ratios[ds.AnchorDim] = r
			}
		}
	}
	for d := range ratios {
		if math.IsNaN(ratios[d]) || math.IsInf(ratios[d], 0) {
			return nil, fmt.Errorf("degenerate overlap in dimension %d", d)
		}
	}
	return ratios, nil
}

// effectiveTileSizes assigns the configured tile sizes to the anchor's
// dimensions, outermost first; dimensions with extent below MinTileExtent
// (e.g. color channels) stay untiled (0). The last configured size repeats
// when the anchor has more tilable dimensions than sizes.
func effectiveTileSizes(anchorBox affine.Box, opts Options) []int64 {
	out := make([]int64, len(anchorBox))
	next := 0
	for d, r := range anchorBox {
		if r.Size() < opts.MinTileExtent {
			out[d] = 0
			continue
		}
		if next < len(opts.TileSizes) {
			out[d] = opts.TileSizes[next]
			next++
		} else if len(opts.TileSizes) > 0 {
			out[d] = opts.TileSizes[len(opts.TileSizes)-1]
		}
		if out[d] >= r.Size() {
			out[d] = 0 // tile covers the whole extent: untiled
		}
	}
	return out
}

func oneRat() affine.Rational { return affine.One }

// replaceGroups removes a and b from the grouping and installs merged.
func replaceGroups(gr *Grouping, a, b, merged *Group) {
	out := gr.Groups[:0]
	for _, grp := range gr.Groups {
		if grp.ID != a.ID && grp.ID != b.ID {
			out = append(out, grp)
		}
	}
	gr.Groups = append(out, merged)
	for _, m := range merged.Members {
		gr.ByName[m] = merged
	}
}

// finalizeGroups fills in tile sizes and scales for the remaining
// single-stage groups. Single-stage groups are executed as plain
// (row-parallel) loop nests without overlapped tiling.
func finalizeGroups(gr *Grouping, est map[string]int64, opts Options) {
	for _, grp := range gr.Groups {
		if len(grp.Members) == 1 {
			grp.Tiled = false
			st := gr.Graph.Stages[grp.Anchor]
			ds := make([]DimScale, st.Decl.NumDims())
			for d := range ds {
				ds[d] = DimScale{AnchorDim: d, Scale: oneRat()}
			}
			grp.Scales = map[string][]DimScale{grp.Anchor: ds}
			grp.TileSizes = make([]int64, st.Decl.NumDims())
		}
	}
}

// orderGroups topologically sorts the quotient DAG (Kahn's algorithm).
func orderGroups(gr *Grouping) error {
	g := gr.Graph
	indeg := make(map[int]int)
	succs := make(map[int][]*Group)
	for _, grp := range gr.Groups {
		indeg[grp.ID] = indeg[grp.ID]
		for _, child := range childGroups(g, gr.ByName, grp) {
			succs[grp.ID] = append(succs[grp.ID], child)
			indeg[child.ID]++
		}
	}
	var ready []*Group
	for _, grp := range gr.Groups {
		if indeg[grp.ID] == 0 {
			ready = append(ready, grp)
		}
	}
	sort.Slice(ready, func(i, j int) bool { return ready[i].Anchor < ready[j].Anchor })
	var ordered []*Group
	for len(ready) > 0 {
		grp := ready[0]
		ready = ready[1:]
		ordered = append(ordered, grp)
		for _, s := range succs[grp.ID] {
			indeg[s.ID]--
			if indeg[s.ID] == 0 {
				ready = append(ready, s)
			}
		}
		sort.Slice(ready, func(i, j int) bool { return ready[i].Anchor < ready[j].Anchor })
	}
	if len(ordered) != len(gr.Groups) {
		return fmt.Errorf("schedule: cycle in the quotient group graph")
	}
	gr.Groups = ordered
	for i, grp := range gr.Groups {
		grp.ID = i
	}
	return nil
}
