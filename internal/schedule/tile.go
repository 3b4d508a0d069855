package schedule

import (
	"fmt"

	"repro/internal/affine"
	"repro/internal/pipeline"
)

// TilePlan is the concrete overlapped-tile decomposition of one group for a
// given parameter binding: the anchor's domain is cut into tiles; for each
// tile, the regions of every member stage needed to compute the tile's
// live-out values are obtained by backward interval propagation through the
// in-group accesses (the tight tile shape construction of Section 3.4 /
// Figure 6).
//
// The per-tile walks (RequiredInto, PropagateInto, ExternalInto, OwnedInto)
// address members by their position in Group.Members and out-of-group
// producers by their position in the plan's external list (first-read
// order), so a caller that keeps one box per position walks every tile
// without a lookup or an allocation.
type TilePlan struct {
	Group     *Group
	Graph     *pipeline.Graph
	Params    map[string]int64
	AnchorBox affine.Box
	// TileSizes per anchor dim; 0 means the dimension is untiled (one tile
	// spans the whole extent) unless NewBandPlan cut it into TileCounts
	// bands.
	TileSizes []int64
	// TileCounts per anchor dim.
	TileCounts []int64
	// LiveOuts are members whose values are consumed outside the group (or
	// are pipeline outputs); they are written to full buffers. Includes the
	// anchor.
	LiveOuts []string

	// members parallels Group.Members.
	members []planMember
	// ext lists every out-of-group producer any member reads (earlier
	// stages and input images) in first-read order, with its concrete
	// domain and name, so the cost model can price each tile's external
	// reads and AffectedInto look up each producer's dirty box.
	ext []planExt
}

// planMember is one group member as the per-tile walks see it.
type planMember struct {
	dom    affine.Box
	scales []DimScale // Group.Scales of the member
	anchor bool
	live   bool
	// acc marks an accumulator, whose access variables index its
	// reduction domain (numbered from 0), not its output box.
	acc bool
	// in are the member's accesses to other members, out its accesses to
	// out-of-group producers, both in expression order, so the arguments
	// of one access call are adjacent and share argAccess.Call.
	// Self-references and targets the graph does not know are in neither.
	in, out []planAccess
}

// planAccess is an argAccess of the graph tables with its target resolved
// to a position in TilePlan.members (planMember.in) or TilePlan.ext
// (planMember.out).
type planAccess struct {
	*argAccess
	target int
}

// widens reports whether the member's out-of-group read a widens to the
// producer's whole extent: a non-affine access, or any read of an
// accumulator, whose reduction sweep no output box describes.
func (pm *planMember) widens(a *planAccess) bool { return !a.OK || pm.acc }

type planExt struct {
	name string
	dom  affine.Box
}

// NewTilePlan builds the tile decomposition of a group under the given
// parameter binding.
func NewTilePlan(g *pipeline.Graph, grp *Group, params map[string]int64) (*TilePlan, error) {
	return newTilePlan(graphInfoOf(g, params, grp.Members), grp)
}

// NewBandPlan is the plan of a one-stage group run as the paper's parallel
// loop over its outer dimension: the outermost dimension with extent n > 1
// is cut into k = min(bands, n) balanced bands, band t owning
// [Lo + t·n/k, Lo + (t+1)·n/k − 1]. Any tile sizes the group carries are
// ignored; bands ≤ 1 gives one region, the whole domain.
func NewBandPlan(g *pipeline.Graph, grp *Group, params map[string]int64, bands int64) (*TilePlan, error) {
	tp, err := NewTilePlan(g, grp, params)
	if err != nil {
		return nil, err
	}
	clear(tp.TileSizes)
	for d := range tp.TileCounts {
		tp.TileCounts[d] = 1
	}
	for d, r := range tp.AnchorBox {
		if n := r.Size(); n > 1 {
			tp.TileCounts[d] = max(1, min(bands, n))
			break
		}
	}
	return tp, nil
}

// newTilePlan is NewTilePlan over shared graph tables.
func newTilePlan(gi *graphInfo, grp *Group) (*TilePlan, error) {
	g := gi.g
	anchor := gi.domain(grp.Anchor)
	if anchor.err != nil {
		return nil, anchor.err
	}
	anchorBox := anchor.box
	tp := &TilePlan{
		Group:      grp,
		Graph:      g,
		Params:     gi.params,
		AnchorBox:  anchorBox,
		TileSizes:  make([]int64, len(anchorBox)),
		TileCounts: make([]int64, len(anchorBox)),
		members:    make([]planMember, len(grp.Members)),
	}
	if grp.Tiled {
		copy(tp.TileSizes, grp.TileSizes)
	}
	for d, r := range anchorBox {
		ts := tp.TileSizes[d]
		if ts <= 0 || ts >= r.Size() {
			tp.TileSizes[d] = 0
			tp.TileCounts[d] = 1
		} else {
			tp.TileCounts[d] = affine.CeilDiv(r.Size(), ts)
		}
	}
	pos := make(map[string]int, len(grp.Members))
	for i, m := range grp.Members {
		pos[m] = i
	}
	extIndex := make(map[string]int)
	for i, m := range grp.Members {
		st := g.Stages[m]
		dom := gi.domain(m)
		if dom.err != nil {
			return nil, dom.err
		}
		pm := &tp.members[i]
		pm.dom = dom.box
		pm.scales = grp.Scales[m]
		pm.anchor = m == grp.Anchor
		pm.live = st.LiveOut || pm.anchor
		pm.acc = st.IsAccumulator()
		for _, c := range st.Consumers {
			if _, in := pos[c]; !in {
				pm.live = true
			}
		}
		if pm.live {
			tp.LiveOuts = append(tp.LiveOuts, m)
		}
		accs := gi.accesses(m)
		pm.in = make([]planAccess, 0, len(accs))
		pm.out = make([]planAccess, 0, len(accs))
		for k := range accs {
			aa := &accs[k]
			pa := planAccess{argAccess: aa}
			if t, in := pos[aa.Target]; in {
				if t != i {
					pa.target = t
					pm.in = append(pm.in, pa)
				}
				continue
			}
			e, seen := extIndex[aa.Target]
			if !seen {
				dom := gi.domain(aa.Target)
				if !dom.known {
					continue
				}
				if dom.err != nil {
					return nil, dom.err
				}
				e = len(tp.ext)
				extIndex[aa.Target] = e
				tp.ext = append(tp.ext, planExt{name: aa.Target, dom: dom.box})
			}
			pa.target = e
			pm.out = append(pm.out, pa)
		}
	}
	return tp, nil
}

// NumTiles returns the total number of tiles.
func (tp *TilePlan) NumTiles() int64 {
	n := int64(1)
	for _, c := range tp.TileCounts {
		n *= c
	}
	return n
}

// interiorTile returns the index of the middle tile along every dimension.
func (tp *TilePlan) interiorTile() []int64 {
	idx := make([]int64, len(tp.TileCounts))
	for d, n := range tp.TileCounts {
		idx[d] = n / 2
	}
	return idx
}

// TileIndex converts a flat tile number into a per-dimension tile index.
func (tp *TilePlan) TileIndex(flat int64, idx []int64) []int64 {
	if idx == nil {
		idx = make([]int64, len(tp.TileCounts))
	}
	for d := len(tp.TileCounts) - 1; d >= 0; d-- {
		idx[d] = flat % tp.TileCounts[d]
		flat /= tp.TileCounts[d]
	}
	return idx
}

// MemberAccess is one in-group access of a member (consumer side view).
type MemberAccess struct {
	Target      int // producer's position in Group.Members
	ProducerDim int
	Acc         affine.Access
	OK          bool // quasi-affine form available
}

// InGroupAccesses lists the accesses of the member at position i to other
// group members in expression order (used by alternative tiling strategies
// such as split tiling).
func (tp *TilePlan) InGroupAccesses(i int) []MemberAccess {
	var out []MemberAccess
	for _, a := range tp.members[i].in {
		out = append(out, MemberAccess{Target: a.target, ProducerDim: a.ProducerDim, Acc: a.Acc, OK: a.OK})
	}
	return out
}

// OwnedInto computes into out (len(out) must equal the member's rank) the
// sub-box of the member at position i that the tile at idx is responsible
// for writing, without allocating. Tiles own disjoint boxes whose union
// covers the member's domain exactly, so parallel tiles never write the
// same live-out element twice (overlap regions are recomputed into
// scratchpads only).
func (tp *TilePlan) OwnedInto(out affine.Box, i int, idx []int64) {
	for d := range out {
		out[d] = tp.ownedRange(i, d, idx)
	}
}

// ownedRange is dimension d of OwnedInto's box for member i at tile idx.
func (tp *TilePlan) ownedRange(i, d int, idx []int64) affine.Range {
	pm := &tp.members[i]
	r := pm.dom[d]
	if pm.anchor {
		ts, k, t := tp.TileSizes[d], tp.TileCounts[d], idx[d]
		switch {
		case ts > 0:
			lo := r.Lo + t*ts
			return affine.Range{Lo: lo, Hi: min(lo+ts-1, r.Hi)}
		case k > 1:
			// A band of NewBandPlan.
			n := r.Size()
			return affine.Range{Lo: r.Lo + t*n/k, Hi: r.Lo + (t+1)*n/k - 1}
		default:
			return r
		}
	}
	ds := pm.scales[d]
	if ds.AnchorDim < 0 || tp.TileSizes[ds.AnchorDim] == 0 {
		// Unaligned or untiled anchor dimension: the single tile along
		// it owns the full extent.
		return r
	}
	a := ds.AnchorDim
	t := idx[a]
	lo := r.Lo
	if t > 0 {
		lo = r.Lo + ds.Scale.ScaleFloor(t*tp.TileSizes[a])
	}
	hi := r.Hi
	if t < tp.TileCounts[a]-1 {
		hi = r.Lo + ds.Scale.ScaleFloor((t+1)*tp.TileSizes[a]) - 1
	}
	return affine.Range{Lo: lo, Hi: hi}.Intersect(r)
}

// MemberBoxes allocates one box per member, of the member's rank, for
// RequiredInto and OwnedInto.
func (tp *TilePlan) MemberBoxes() []affine.Box {
	out := make([]affine.Box, len(tp.members))
	for i := range out {
		out[i] = make(affine.Box, len(tp.members[i].dom))
	}
	return out
}

// ExtBoxes allocates one box per external producer, for ExternalInto.
func (tp *TilePlan) ExtBoxes() []affine.Box {
	out := make([]affine.Box, len(tp.ext))
	for i := range out {
		out[i] = make(affine.Box, len(tp.ext[i].dom))
	}
	return out
}

var emptyRange = affine.Range{Lo: 0, Hi: -1}

// RequiredInto computes, for the tile at idx, the region of every member
// that must be evaluated: the tile's owned live-out boxes plus everything
// the in-group consumers transitively need (the overlapped tile of
// Figure 6), clipped to the member domains. req holds one box per member
// (MemberBoxes), which receives Group.Members[i]'s region in place; a
// member the tile does not need gets an all-empty box.
func (tp *TilePlan) RequiredInto(idx []int64, req []affine.Box) error {
	for i := range tp.members {
		if tp.members[i].live {
			tp.OwnedInto(req[i], i, idx)
		}
	}
	return tp.PropagateInto(req)
}

// PropagateInto completes a tile's required regions from its live-out
// seeds: req[i] of every live-out member holds the region the tile must
// write (RequiredInto seeds the owned boxes, a dirty-rectangle frame those
// boxes clipped to the affected ones), and the backward pass adds what the
// in-group consumers transitively read. The other members' boxes, and an
// empty seed, are overwritten with all-empty boxes; every box ends clipped
// to its member's domain.
func (tp *TilePlan) PropagateInto(req []affine.Box) error {
	for i := range tp.members {
		b := req[i]
		if tp.members[i].live && !b.Empty() {
			continue
		}
		for d := range b {
			b[d] = emptyRange
		}
	}
	// Backward propagation: consumers before producers.
	for i := len(tp.members) - 1; i >= 0; i-- {
		crq := req[i]
		if crq.Empty() {
			continue
		}
		in := tp.members[i].in
		for k := range in {
			a := &in[k]
			if !a.OK {
				return fmt.Errorf("schedule: non-affine in-group access %s -> %s", tp.Group.Members[i], tp.Group.Members[a.target])
			}
			var varRange affine.Range
			if a.Acc.Var >= 0 {
				varRange = crq[a.Acc.Var]
			}
			rng, err := a.rangeOver(varRange)
			if err != nil {
				return err
			}
			prq := req[a.target]
			prq[a.ProducerDim] = prq[a.ProducerDim].Union(rng.Intersect(tp.members[a.target].dom[a.ProducerDim]))
		}
	}
	// Clip to domains (in place).
	for i := range tp.members {
		b, dom := req[i], tp.members[i].dom
		for d := range b {
			b[d] = b[d].Intersect(dom[d])
		}
	}
	return nil
}

// ExternalInto computes, given a tile's member required regions req (as
// RequiredInto leaves them), the region of every out-of-group producer —
// earlier groups' stages and input images — the tile reads, into out (one
// box per producer, ExtBoxes, in first-read order). A producer the tile
// does not read gets an all-empty box. A non-affine external access, and
// every read of an accumulator, widens to the producer's whole domain, a
// sound over-approximation.
func (tp *TilePlan) ExternalInto(req, out []affine.Box) error {
	for _, b := range out {
		for d := range b {
			b[d] = emptyRange
		}
	}
	for i := range tp.members {
		crq := req[i]
		if crq.Empty() {
			continue
		}
		pm := &tp.members[i]
		for k := range pm.out {
			a := &pm.out[k]
			edom := tp.ext[a.target].dom
			erq := out[a.target]
			if pm.widens(a) {
				erq[a.ProducerDim] = erq[a.ProducerDim].Union(edom[a.ProducerDim])
				continue
			}
			var varRange affine.Range
			if a.Acc.Var >= 0 {
				varRange = crq[a.Acc.Var]
			}
			rng, err := a.rangeOver(varRange)
			if err != nil {
				return err
			}
			erq[a.ProducerDim] = erq[a.ProducerDim].Union(rng.Intersect(edom[a.ProducerDim]))
		}
	}
	return nil
}

// AffectedInto computes, given the boxes where the out-of-group producers
// changed (dirty, by producer name; an absent or empty box is unchanged),
// the affected box of every member into aff (MemberBoxes): a bounding box
// of the member's points that read a changed value, directly or through
// earlier members — the forward image of the dirty boxes through the
// group's accesses, the dual of RequiredInto's backward pass. A point
// outside it reads exactly the values it read before, so it keeps its
// value.
//
// Members are walked producers first. Each access call whose target is
// dirty contributes the member points whose read lands in the target's
// box: its domain, with each affine argument's variable intersected with
// the exact inverse image of that dimension's dirty range (a var-free
// argument whose index misses the range drops the call). A non-affine
// argument, and every argument of an accumulator's read, constrains
// nothing.
// Calls are kept whole because a box is a product: the points of f(x+1,
// y) that meet a dirty box are those where both arguments land in it, a
// much smaller set than where either does.
func (tp *TilePlan) AffectedInto(dirty map[string]affine.Box, aff []affine.Box) error {
	var stack [8]affine.Range
	for i := range tp.members {
		pm := &tp.members[i]
		b := aff[i]
		for d := range b {
			b[d] = emptyRange
		}
		for side, list := range [...][]planAccess{pm.out, pm.in} {
			for lo := 0; lo < len(list); {
				hi := lo + 1
				for hi < len(list) && list[hi].Call == list[lo].Call {
					hi++
				}
				args := list[lo:hi]
				lo = hi
				var src affine.Box
				if side == 0 {
					src = dirty[tp.ext[args[0].target].name]
				} else {
					src = aff[args[0].target]
				}
				if src.Empty() {
					continue
				}
				box := affine.Box(append(stack[:0], pm.dom...))
				hit := true
				for k := range args {
					a := &args[k]
					if pm.widens(a) {
						continue
					}
					var inv affine.Range
					var err error
					inv, hit, err = a.inverseOver(src[a.ProducerDim])
					if err != nil {
						return err
					}
					if !hit {
						break
					}
					if a.Acc.Var >= 0 {
						box[a.Acc.Var] = box[a.Acc.Var].Intersect(inv)
					}
				}
				if !hit || box.Empty() {
					continue
				}
				for d := range b {
					b[d] = b[d].Union(box[d])
				}
			}
		}
	}
	return nil
}
