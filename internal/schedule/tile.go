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
type TilePlan struct {
	Group     *Group
	Graph     *pipeline.Graph
	Params    map[string]int64
	AnchorBox affine.Box
	// TileSizes per anchor dim; 0 means the dimension is untiled (one tile
	// spans the whole extent).
	TileSizes []int64
	// TileCounts per anchor dim.
	TileCounts []int64
	// LiveOuts are members whose values are consumed outside the group (or
	// are pipeline outputs); they are written to full buffers. Includes the
	// anchor.
	LiveOuts []string

	// members parallels Group.Members; index maps a member's name to its
	// position. The per-tile walks below (requiredInto, externalInto,
	// ownedInto) address members and producers by position only.
	members []planMember
	index   map[string]int
	// ext lists every out-of-group producer any member reads (earlier
	// stages and input images) in first-read order, with its concrete
	// domain, so dirty-rectangle runs can derive each tile's external read
	// regions without locking or allocating.
	ext []planExt
}

// planMember is one group member as the per-tile walks see it.
type planMember struct {
	dom    affine.Box
	scales []DimScale // Group.Scales of the member
	anchor bool
	live   bool
	// in are the member's accesses to other members, out its accesses to
	// out-of-group producers, both in expression order. Self-references and
	// targets the graph does not know are in neither.
	in, out []planAccess
}

// planAccess is an argAccess with its target resolved to a position in
// TilePlan.members (planMember.in) or TilePlan.ext (planMember.out).
type planAccess struct {
	argAccess
	target int
}

type planExt struct {
	name string
	dom  affine.Box
}

// NewTilePlan builds the tile decomposition of a group under the given
// parameter binding.
func NewTilePlan(g *pipeline.Graph, grp *Group, params map[string]int64) (*TilePlan, error) {
	return newTilePlan(newGraphInfo(g, params), grp)
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
		index:      make(map[string]int, len(grp.Members)),
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
	for i, m := range grp.Members {
		tp.index[m] = i
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
		for _, c := range st.Consumers {
			if _, in := tp.index[c]; !in {
				pm.live = true
			}
		}
		if pm.live {
			tp.LiveOuts = append(tp.LiveOuts, m)
		}
		for _, aa := range gi.accesses(m) {
			pa := planAccess{argAccess: aa}
			if t, in := tp.index[aa.Target]; in {
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

// MemberDomain returns a member's concrete domain (nil for a non-member).
func (tp *TilePlan) MemberDomain(m string) affine.Box {
	if i, ok := tp.index[m]; ok {
		return tp.members[i].dom
	}
	return nil
}

// MemberAccess is one in-group access of a member (consumer side view).
type MemberAccess struct {
	Target      string // producer stage (an in-group member)
	ProducerDim int
	Acc         affine.Access
	OK          bool // quasi-affine form available
}

// InGroupAccesses lists a member's accesses to other group members in
// expression order (used by alternative tiling strategies such as split
// tiling).
func (tp *TilePlan) InGroupAccesses(m string) []MemberAccess {
	i, ok := tp.index[m]
	if !ok {
		return nil
	}
	var out []MemberAccess
	for _, a := range tp.members[i].in {
		out = append(out, MemberAccess{Target: tp.Group.Members[a.target], ProducerDim: a.ProducerDim, Acc: a.Acc, OK: a.OK})
	}
	return out
}

// OwnedBox returns the sub-box of live-out member m that the tile at idx is
// responsible for writing. Tiles own disjoint boxes whose union covers the
// member's domain exactly, so parallel tiles never write the same live-out
// element twice (overlap regions are recomputed into scratchpads only).
func (tp *TilePlan) OwnedBox(m string, idx []int64) affine.Box {
	out := make(affine.Box, len(tp.MemberDomain(m)))
	tp.OwnedBoxInto(out, m, idx)
	return out
}

// OwnedBoxInto computes OwnedBox into dst (len(dst) must equal the member's
// rank) without allocating — used by the engine's metrics path to measure
// recomputation without perturbing the run it is measuring.
func (tp *TilePlan) OwnedBoxInto(dst affine.Box, m string, idx []int64) {
	if i, ok := tp.index[m]; ok {
		tp.ownedInto(dst, i, idx)
	}
}

// ownedInto computes the owned box of the member at position i into out
// (len(out) must equal the member's rank) without allocating.
func (tp *TilePlan) ownedInto(out affine.Box, i int, idx []int64) {
	pm := &tp.members[i]
	if pm.anchor {
		for d, r := range tp.AnchorBox {
			if tp.TileSizes[d] == 0 {
				out[d] = r
				continue
			}
			lo := r.Lo + idx[d]*tp.TileSizes[d]
			hi := lo + tp.TileSizes[d] - 1
			if hi > r.Hi {
				hi = r.Hi
			}
			out[d] = affine.Range{Lo: lo, Hi: hi}
		}
		return
	}
	for d, r := range pm.dom {
		ds := pm.scales[d]
		if ds.AnchorDim < 0 || tp.TileSizes[ds.AnchorDim] == 0 {
			// Unaligned or untiled anchor dimension: the single tile along
			// it owns the full extent.
			out[d] = r
			continue
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
		out[d] = affine.Range{Lo: lo, Hi: hi}.Intersect(r)
	}
}

// boxStack is the stack space Required and ExternalReads lay a map's boxes
// out in by position; groups with more members or producers spill to the
// heap.
const boxStack = 32

// Required computes, for the tile at idx, the region of every member that
// must be evaluated: the tile's owned live-out boxes plus everything the
// in-group consumers transitively need (the overlapped tile of Figure 6).
// Results are clipped to the member domains. The returned map is freshly
// allocated unless dst is provided.
//
// Boxes in dst are reused in place across calls (steady-state Required
// allocates nothing): a member not required by this tile holds an all-empty
// box rather than nil, which callers treat identically.
func (tp *TilePlan) Required(idx []int64, dst map[string]affine.Box) (map[string]affine.Box, error) {
	req := dst
	if req == nil {
		req = make(map[string]affine.Box, len(tp.members))
	}
	var stack [boxStack]affine.Box
	boxes := stack[:0]
	for i, m := range tp.Group.Members {
		boxes = append(boxes, mapBox(req, m, len(tp.members[i].dom)))
	}
	if err := tp.requiredInto(idx, boxes); err != nil {
		return nil, err
	}
	return req, nil
}

// mapBox returns m[name] if it has the given rank, else installs a fresh
// box of that rank.
func mapBox(m map[string]affine.Box, name string, rank int) affine.Box {
	b := m[name]
	if len(b) != rank {
		b = make(affine.Box, rank)
		m[name] = b
	}
	return b
}

// memberBoxes allocates one box per member, for requiredInto.
func (tp *TilePlan) memberBoxes() []affine.Box {
	out := make([]affine.Box, len(tp.members))
	for i := range out {
		out[i] = make(affine.Box, len(tp.members[i].dom))
	}
	return out
}

// extBoxes allocates one box per external producer, for externalInto.
func (tp *TilePlan) extBoxes() []affine.Box {
	out := make([]affine.Box, len(tp.ext))
	for i := range out {
		out[i] = make(affine.Box, len(tp.ext[i].dom))
	}
	return out
}

var emptyRange = affine.Range{Lo: 0, Hi: -1}

// requiredInto is Required by position: req[i] (of member i's rank) receives
// the region of Group.Members[i].
func (tp *TilePlan) requiredInto(idx []int64, req []affine.Box) error {
	for i := range tp.members {
		pm := &tp.members[i]
		if pm.live {
			// Seed with the owned live-out region.
			tp.ownedInto(req[i], i, idx)
			continue
		}
		b := req[i]
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

// ExternalReads computes, given a tile's member required regions req (as
// returned by Required), the region of every out-of-group producer —
// earlier groups' stages and input images — the tile reads. Like Required,
// boxes in dst are reused in place across calls: a target the tile does not
// read holds an all-empty box. A non-affine external access widens to the
// producer's whole domain, a sound over-approximation — the dirty-rectangle
// engine then recomputes the tile whenever that producer changed anywhere.
func (tp *TilePlan) ExternalReads(req map[string]affine.Box, dst map[string]affine.Box) (map[string]affine.Box, error) {
	out := dst
	if out == nil {
		out = make(map[string]affine.Box, len(tp.ext))
	}
	var rstack, estack [boxStack]affine.Box
	reqBoxes, extBoxes := rstack[:0], estack[:0]
	for _, m := range tp.Group.Members {
		reqBoxes = append(reqBoxes, req[m])
	}
	for _, e := range tp.ext {
		extBoxes = append(extBoxes, mapBox(out, e.name, len(e.dom)))
	}
	if err := tp.externalInto(reqBoxes, extBoxes); err != nil {
		return nil, err
	}
	return out, nil
}

// externalInto is ExternalReads by position: req is indexed like
// Group.Members, out like tp.ext.
func (tp *TilePlan) externalInto(req, out []affine.Box) error {
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
		reads := tp.members[i].out
		for k := range reads {
			a := &reads[k]
			edom := tp.ext[a.target].dom
			erq := out[a.target]
			if !a.OK || a.Acc.Var >= len(crq) {
				// Non-affine access, or one indexed by a variable outside
				// the member's output domain (a reduction variable):
				// widen to the producer's whole extent.
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
