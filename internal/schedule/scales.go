package schedule

import (
	"fmt"

	"repro/internal/affine"
)

// computeScales performs the alignment and scaling analysis of Section 3.3
// for a prospective group: starting from the anchor (scale 1 on every
// dimension), it propagates sampling-rate ratios backwards through the
// in-group accesses, assigning every member dimension an anchor dimension
// and a rational scale. It fails — meaning the stages cannot be fused with
// overlapped tiling — when an in-group access is non-affine or has a
// parametric offset, when a sampling rate is non-positive (mirrored
// accesses), or when two paths assign inconsistent scales (the paper's
// f(x,y) = g(x,y) + g(y,x) and f(x) = g(x/2) + g(x/4) examples).
func computeScales(gi *graphInfo, members map[string]bool, anchor string) (map[string][]DimScale, error) {
	g := gi.g
	anchorStage := g.Stages[anchor]
	scales := make(map[string][]DimScale, len(members))
	as := make([]DimScale, anchorStage.Decl.NumDims())
	for d := range as {
		as[d] = DimScale{AnchorDim: d, Scale: affine.One}
	}
	scales[anchor] = as

	// Process members in reverse topological order (consumers before
	// producers) so each consumer's scales are final before propagating.
	order := sortedMembers(g, members)
	for i := len(order) - 1; i >= 0; i-- {
		cname := order[i]
		cs, ok := scales[cname]
		if !ok {
			return nil, fmt.Errorf("schedule: member %s unreachable from anchor %s", cname, anchor)
		}
		for _, aa := range gi.accesses(cname) {
			target := aa.Target
			if !members[target] || target == cname {
				continue
			}
			ps := scales[target]
			if ps == nil {
				ps = make([]DimScale, g.Stages[target].Decl.NumDims())
				for d := range ps {
					ps[d] = DimScale{AnchorDim: -1}
				}
				scales[target] = ps
			}
			if !aa.OK {
				return nil, fmt.Errorf("schedule: %s reads %s through a non-affine access", cname, target)
			}
			if _, isConst := aa.Acc.Off.ConstVal(); !isConst {
				return nil, fmt.Errorf("schedule: %s reads %s with a parametric offset (%s)", cname, target, aa.Acc.Off)
			}
			ds, err := accessDimScale(cs, aa.Acc)
			if err != nil {
				return nil, fmt.Errorf("schedule: %s -> %s: %v", cname, target, err)
			}
			if err := mergeDimScale(&ps[aa.ProducerDim], ds); err != nil {
				return nil, fmt.Errorf("schedule: %s -> %s dim %d: %v", cname, target, aa.ProducerDim, err)
			}
		}
	}
	for _, m := range order {
		if scales[m] == nil {
			return nil, fmt.Errorf("schedule: member %s not connected to anchor %s", m, anchor)
		}
	}
	return scales, nil
}

// accessDimScale derives the producer-dimension scale implied by one access
// from a consumer with dimension scales cs.
func accessDimScale(cs []DimScale, acc affine.Access) (DimScale, error) {
	if acc.Var < 0 {
		return DimScale{AnchorDim: -1}, nil // constant index: unaligned
	}
	if acc.Var >= len(cs) {
		return DimScale{}, fmt.Errorf("access uses nonexistent consumer dimension %d", acc.Var)
	}
	c := cs[acc.Var]
	if c.AnchorDim == -1 {
		return DimScale{AnchorDim: -1}, nil
	}
	if acc.Coeff <= 0 {
		return DimScale{}, fmt.Errorf("non-positive sampling rate %d/%d", acc.Coeff, acc.Div)
	}
	return DimScale{AnchorDim: c.AnchorDim, Scale: c.Scale.Mul(acc.Rate())}, nil
}

// mergeDimScale reconciles a new scale assignment with an existing one.
// Aligned assignments win over unaligned; two aligned assignments must
// agree exactly.
func mergeDimScale(slot *DimScale, ds DimScale) error {
	if ds.AnchorDim == -1 {
		return nil // unaligned adds no constraint
	}
	if slot.AnchorDim == -1 {
		*slot = ds
		return nil
	}
	if slot.AnchorDim != ds.AnchorDim {
		return fmt.Errorf("aligned to two anchor dimensions (%d and %d)", slot.AnchorDim, ds.AnchorDim)
	}
	if !slot.Scale.Equal(ds.Scale) {
		return fmt.Errorf("inconsistent scales (%s and %s)", slot.Scale, ds.Scale)
	}
	return nil
}
