package schedule

import (
	"fmt"
	"sort"

	"repro/internal/affine"
	"repro/internal/pipeline"
)

// This file implements the explicit dependence-vector view of Section 3.4:
// after alignment and scaling, every in-group access contributes a constant
// dependence vector (Δlevel, Δd0, Δd1, ...) in the group's common scaled
// space; the tile shape's bounding hyperplanes φl and φr are derived from
// the per-level maximum non-negative / minimum non-positive components, and
// the overlap per dimension is o = h·(|l| + |r|) (Figure 6). The executor
// computes exact per-tile regions by interval propagation (tile.go); these
// vectors are the analytical counterpart, used for diagnostics and to
// cross-check the propagation in tests.

// DepVector is one constant dependence vector of a group.
type DepVector struct {
	From, To string // consumer and producer stage names
	// LevelDelta is the difference in (group-local) topological level —
	// the leading dimension of the initial schedules of Section 3.1.
	LevelDelta int
	// Delta has one rational entry per anchor dimension: the dependence
	// distance in the common scaled space (nil entries for dimensions the
	// access does not constrain).
	Delta []*affine.Rational
}

// TileShape summarizes the overlapped-tile geometry of a group.
type TileShape struct {
	// Height is h: one less than the number of levels in the group.
	Height int
	// SlopeL and SlopeR are the |l| and |r| slope magnitudes per anchor
	// dimension (the bounding hyperplanes φl, φr of Figure 6).
	SlopeL, SlopeR []float64
	// Overlap is o = h·(|l|+|r|) per anchor dimension, in common-space
	// points.
	Overlap []float64
	Vectors []DepVector
}

// DependenceVectors computes the constant dependence vectors of a fused
// group. It requires the group's scales (alignment/scaling already done).
func DependenceVectors(g *pipeline.Graph, grp *Group) ([]DepVector, error) {
	if grp.Scales == nil {
		return nil, fmt.Errorf("schedule: group %s has no scales", grp.Anchor)
	}
	levels := groupLevels(g, grp)
	var out []DepVector
	anchorDims := len(grp.Scales[grp.Anchor])
	memberSet := make(map[string]bool, len(grp.Members))
	for _, m := range grp.Members {
		memberSet[m] = true
	}
	for _, cname := range grp.Members {
		cs := grp.Scales[cname]
		seen := make(map[string]bool)
		for _, aa := range stageAccesses(g.Stages[cname]) {
			target := aa.Target
			if !memberSet[target] || target == cname {
				continue
			}
			if !aa.OK {
				return nil, fmt.Errorf("schedule: non-affine in-group access %s -> %s", cname, target)
			}
			dv := DepVector{
				From:       cname,
				To:         target,
				LevelDelta: levels[cname] - levels[target],
				Delta:      make([]*affine.Rational, anchorDims),
			}
			if aa.Acc.Var >= 0 && aa.Acc.Var < len(cs) {
				ds := cs[aa.Acc.Var]
				if ds.AnchorDim >= 0 && !ds.Scale.IsZero() {
					// Common-space dependence distance: the consumer
					// point u reads the producer at u + β/(s_c·α)
					// where the access is (α·x + β)/δ and s_c is the
					// consumer's scale. The distance (consumer −
					// producer) is −β/(s_c·α).
					off, _ := aa.Acc.Off.ConstVal()
					d := affine.NewRational(-off*ds.Scale.Den, ds.Scale.Num*aa.Acc.Coeff)
					dv.Delta[ds.AnchorDim] = &d
				}
			}
			key := fmt.Sprintf("%s|%d|%v", target, dv.LevelDelta, dv.Delta)
			if !seen[key] {
				seen[key] = true
				out = append(out, dv)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		return fmt.Sprint(out[i].Delta) < fmt.Sprint(out[j].Delta)
	})
	return out, nil
}

// groupLevels re-levels the members within the group (0 = group sources).
func groupLevels(g *pipeline.Graph, grp *Group) map[string]int {
	memberSet := make(map[string]bool, len(grp.Members))
	for _, m := range grp.Members {
		memberSet[m] = true
	}
	levels := make(map[string]int, len(grp.Members))
	for _, m := range grp.Members { // Members is in topological order
		l := 0
		for _, p := range g.Stages[m].Producers {
			if memberSet[p] {
				if pl := levels[p] + 1; pl > l {
					l = pl
				}
			}
		}
		levels[m] = l
	}
	return levels
}

// ComputeTileShape derives the bounding-hyperplane slopes and the analytic
// overlap of a group from its dependence vectors (Section 3.4): for φl only
// the non-negative components matter, for φr the non-positive ones, each
// normalized by the level distance they span.
func ComputeTileShape(g *pipeline.Graph, grp *Group) (*TileShape, error) {
	vecs, err := DependenceVectors(g, grp)
	if err != nil {
		return nil, err
	}
	levels := groupLevels(g, grp)
	h := 0
	for _, l := range levels {
		if l > h {
			h = l
		}
	}
	nd := len(grp.Scales[grp.Anchor])
	ts := &TileShape{
		Height:  h,
		SlopeL:  make([]float64, nd),
		SlopeR:  make([]float64, nd),
		Overlap: make([]float64, nd),
		Vectors: vecs,
	}
	for _, v := range vecs {
		if v.LevelDelta <= 0 {
			continue
		}
		for d, delta := range v.Delta {
			if delta == nil {
				continue
			}
			slope := delta.Float() / float64(v.LevelDelta)
			// A positive distance means the consumer reads to the left
			// (producer at smaller coordinate): it widens φl; negative
			// widens φr.
			if slope > ts.SlopeL[d] {
				ts.SlopeL[d] = slope
			}
			if -slope > ts.SlopeR[d] {
				ts.SlopeR[d] = -slope
			}
		}
	}
	for d := range ts.Overlap {
		ts.Overlap[d] = float64(ts.Height) * (ts.SlopeL[d] + ts.SlopeR[d])
	}
	return ts, nil
}

// String renders a dependence vector like "(1, 1, -1) f2->fout".
func (v DepVector) String() string {
	s := fmt.Sprintf("(%d", v.LevelDelta)
	for _, d := range v.Delta {
		if d == nil {
			s += ", *"
		} else {
			s += ", " + d.String()
		}
	}
	return fmt.Sprintf("%s) %s->%s", s, v.To, v.From)
}
