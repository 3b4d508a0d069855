package schedule

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/affine"
	"repro/internal/pipeline"
)

// rereadDiscount prices the duplicated (halo-overlap) portion of external
// reads relative to a distinct cold read: adjacent tiles re-read rows that
// are still resident in cache.
const rereadDiscount = 0.25

// The model's fixed sizes. exactTileCap bounds exact per-tile enumeration:
// a group with more tiles extrapolates from its interior tile (sumTiles).
// cacheBudgetBytes is the per-tile working set before the footprint term
// starts charging (a per-core L2). rowOverheadPoints is the fixed dispatch
// cost of one row segment in point-equivalents, folded into the Compute
// term; calibrated against the measured square-vs-wide tile gap on the
// Table-2 stencil apps (~25 points per row). An integer, so the
// per-dimension sums stay exact (perDimSums).
const (
	exactTileCap      = 4096
	cacheBudgetBytes  = 1 << 20
	rowOverheadPoints = 24
	budgetPts         = cacheBudgetBytes / 4 // in float32 elements
)

// trafficFactor scales a buffer's traffic price by how much of it can stay
// cache-resident: a buffer far smaller than the cache budget is read and
// written at hot-cache rates (the re-read discount), one at or beyond the
// budget at full cold price, with a linear ramp between. Without this,
// small-domain pipelines (coarse pyramid levels) over-reward fusion whose
// halo overhead the cache-resident buffers never pay back.
func trafficFactor(pts float64) float64 {
	if pts >= budgetPts {
		return 1
	}
	return rereadDiscount + (1-rereadDiscount)*pts/budgetPts
}

// This file is the analytical cost model behind Options.Auto: it prices a
// candidate group (a set of fused stages with tile sizes) in domain points,
// from the same tile-dependence machinery the engine executes — TilePlan's
// RequiredInto/OwnedInto give the halo recompute and the external read regions,
// so on small tile counts the model's numbers are not estimates but the
// exact quantities the executor will later measure (obs.StageStats
// RecomputedPoints, GroupStats.Tiles). The weighted sum of the terms is
// what the beam search in search.go minimizes.

// CostWeights are the model's coefficients: the relative price of one
// point of each term. Only ratios matter to the search.
type CostWeights struct {
	// Compute prices every evaluated point, halo recompute included, plus
	// the per-row-segment dispatch overhead (rowOverheadPoints per
	// segment): the engine executes row-major, so a tile's inner extent
	// sets how much fixed row setup cost is amortized per point. This is
	// what makes wide-inner tiles (32×256) beat square ones (64×64) on
	// stencil groups even when squares have marginally less halo.
	Compute float64 `json:"compute"`
	// Recompute is the additional price of a point evaluated outside its
	// tile's owned region (cache-cold, duplicated work).
	Recompute float64 `json:"recompute"`
	// Traffic prices every point of full-buffer memory traffic: live-out
	// writes plus out-of-group reads. Fusing a producer into its consumer
	// moves the intermediate into tile scratch and deletes this term —
	// the fusion win the model weighs against Recompute.
	Traffic float64 `json:"traffic"`
	// Parallel prices idle worker capacity: points-equivalent of the load
	// imbalance when the group's parallel units (tiles, or rows when
	// untiled) do not fill the worker fleet evenly.
	Parallel float64 `json:"parallel"`
	// Footprint prices per-tile scratch beyond the cache budget — tiles
	// whose working set spills out of cache pay for it on every point.
	Footprint float64 `json:"footprint"`
}

// DefaultCostWeights returns the built-in coefficients, calibrated by
// hand against measured tile-size/fusion sweeps of the Table-2 apps until
// the model's ranking matched the measured one (cmd/polymage-tune -auto
// re-checks that ranking). Units are arbitrary — the search only compares
// sums.
func DefaultCostWeights() CostWeights {
	return CostWeights{Compute: 1, Recompute: 1.25, Traffic: 5, Parallel: 2, Footprint: 3}
}

// Vector returns the term vector in the canonical order
// [compute, recompute, traffic, parallel-idle, footprint-excess].
func (c GroupCost) Vector() [5]float64 {
	return [5]float64{c.Compute, c.Recompute, c.Traffic, c.ParallelIdle, c.FootprintExcess}
}

// Dot prices a term vector.
func (w CostWeights) Dot(v [5]float64) float64 {
	return w.Compute*v[0] + w.Recompute*v[1] + w.Traffic*v[2] + w.Parallel*v[3] + w.Footprint*v[4]
}

// Total prices a group's cost breakdown.
func (w CostWeights) Total(c GroupCost) float64 { return w.Dot(c.Vector()) }

// GroupCost is the model's breakdown for one group, all terms in domain
// points (Vector gives them in canonical order).
type GroupCost struct {
	// Compute is the number of points evaluated per run, halos included,
	// plus rowOverheadPoints per executed row segment (row-major dispatch
	// cost, amortized by the tile's inner extent).
	Compute float64
	// Recompute is the subset of Compute outside tile-owned regions — the
	// redundant work of overlapped tiling (matches the executor's
	// StageStats.RecomputedPoints summed over the group's members).
	Recompute float64
	// Traffic is full-buffer memory traffic: live-out writes plus reads
	// of out-of-group producers (earlier stages and input images).
	// In-group intermediates live in tile scratchpads and cost nothing.
	Traffic float64
	// ReducibleTraffic is the part of Traffic that further fusion could
	// still delete: writes of live-outs that are not pipeline outputs,
	// plus reads of stage (non-image) producers. The branch-and-bound
	// lower bound subtracts it.
	ReducibleTraffic float64
	// ParallelIdle is the points-equivalent of idle worker capacity: the
	// last wave of parallel units leaves workers idle when the unit count
	// does not divide the fleet width.
	ParallelIdle float64
	// FootprintExcess is per-tile scratch beyond the cache budget,
	// charged once per tile (points).
	FootprintExcess float64
	// Tiles is the tile count (1 for untiled groups).
	Tiles int64
	// Exact reports per-tile enumeration: every tile's required regions
	// were computed exactly. False when Tiles exceeded exactTileCap and
	// the interior tile was extrapolated instead.
	Exact bool
}

// tileSums are a group's per-tile cost terms summed over its tiles.
type tileSums struct {
	compute, recompute, footprint float64
	// ext[e] is the number of points of TilePlan.ext[e] read, summed over
	// tiles (halo overlap counted once per tile that reads it).
	ext []float64
}

// evalGroupCost prices the group of a tile plan under resolved options
// (AutoOptions.withDefaults). perDim permits the per-dimension enumeration
// where it applies; without it every exact evaluation walks every tile, the
// reference the fast path is held to bit for bit. usedPerDim reports that
// the group's tiles were enumerated per dimension (perDimSums) rather than
// one by one or, beyond exactTileCap, extrapolated (sumTiles).
func evalGroupCost(tp *TilePlan, ao AutoOptions, perDim bool) (c GroupCost, usedPerDim bool, err error) {
	grp, g := tp.Group, tp.Graph
	c = GroupCost{Tiles: tp.NumTiles()}

	// Live-out writes are tile-independent: each live-out's full domain is
	// written exactly once per run (tiles own disjoint regions).
	for i := range tp.members {
		if !tp.members[i].live {
			continue
		}
		size := float64(tp.members[i].dom.Size())
		priced := size * trafficFactor(size)
		c.Traffic += priced
		if !g.Stages[grp.Members[i]].LiveOut {
			c.ReducibleTraffic += priced
		}
	}

	// Per-tile terms: exact when the tile count is within the cap,
	// interior-tile extrapolation beyond it.
	c.Exact = c.Tiles <= exactTileCap
	var sums tileSums
	if c.Exact && perDim {
		sums, usedPerDim = tp.perDimSums()
	}
	if !usedPerDim {
		if sums, err = tp.sumTiles(c.Exact); err != nil {
			return GroupCost{}, false, err
		}
	}
	c.Compute, c.Recompute, c.FootprintExcess = sums.compute, sums.recompute, sums.footprint

	// External reads: distinct bytes stream in once at full price; the
	// per-tile halo overlap re-reads rows adjacent tiles just touched,
	// which stay cache-hot and are priced at a discount. Without the
	// split, tall-tile schedules (more tiles along y, more halo re-reads)
	// look artificially expensive against square ones.
	for e, sum := range sums.ext {
		if sum == 0 {
			continue
		}
		distinct := sum
		if d := float64(tp.ext[e].dom.Size()); d < distinct {
			distinct = d
		}
		priced := distinct*trafficFactor(distinct) + rereadDiscount*(sum-distinct)
		c.Traffic += priced
		if _, isImage := g.Images[tp.ext[e].name]; !isImage {
			c.ReducibleTraffic += priced
		}
	}

	// Parallelism: tiles are the parallel unit for tiled groups; untiled
	// groups execute row-parallel over the anchor domain. The last wave
	// leaves (waves·W − units) workers idle for one unit's worth of work.
	units := c.Tiles
	if !grp.Tiled || units <= 1 {
		units = 1
		if n := len(tp.AnchorBox); n > 1 {
			units = tp.AnchorBox[:n-1].Size()
		}
	}
	if w := int64(ao.FleetWidth); w > 1 && units > 0 {
		waves := (units + w - 1) / w
		idleUnits := waves*w - units
		c.ParallelIdle = float64(idleUnits) * c.Compute / float64(units)
	}
	return c, usedPerDim, nil
}

// sumTiles probes tiles one by one: every tile when exact, else the
// interior tile alone, its terms scaled by the tile count.
func (tp *TilePlan) sumTiles(exact bool) (tileSums, error) {
	sums := tileSums{ext: make([]float64, len(tp.ext))}
	n, scale := tp.NumTiles(), 1.0
	idx := make([]int64, len(tp.TileCounts))
	if !exact {
		n, scale = 1, float64(n)
		idx = tp.interiorTile()
	}
	req, owned, ext := tp.MemberBoxes(), tp.MemberBoxes(), tp.ExtBoxes()
	for flat := int64(0); flat < n; flat++ {
		if exact {
			tp.TileIndex(flat, idx)
		}
		if err := tp.RequiredInto(idx, req); err != nil {
			return tileSums{}, err
		}
		work := 0.0
		for i, b := range req {
			if b.Empty() {
				continue
			}
			size := float64(b.Size())
			// Row segments: the engine walks the region row-major, paying a
			// fixed dispatch cost per row of the innermost dimension.
			rows := 1.0
			if inner := float64(b[len(b)-1].Size()); inner > 0 {
				rows = size / inner
			}
			sums.compute += (size + rowOverheadPoints*rows) * scale
			// Recomputed points: required minus the tile-owned region —
			// the same quantity the executor's metrics path measures into
			// StageStats.RecomputedPoints.
			ob := owned[i]
			tp.OwnedInto(ob, i, idx)
			in := int64(1)
			for d := range b {
				in *= ob[d].Intersect(b[d]).Size()
			}
			sums.recompute += (size - float64(in)) * scale
			work += size
		}
		if err := tp.ExternalInto(req, ext); err != nil {
			return tileSums{}, err
		}
		for e, b := range ext {
			if b.Empty() {
				continue
			}
			sz := float64(b.Size())
			sums.ext[e] += sz * scale
			work += sz
		}
		// Footprint is the tile's whole working set — member regions
		// (scratch and the live-out slice it writes) plus the external
		// regions it reads. All of it competes for the same cache; counting
		// only scratch lets a tile that barely fits its intermediates but
		// thrashes on inputs look free.
		if work > budgetPts {
			sums.footprint += (work - budgetPts) * scale
		}
	}
	return sums, nil
}

// exactBelow bounds the sums perDimSums may form: every term is an integer
// (or, for the footprint excess, a multiple of 1/4), and below 2^50 float64
// adds and multiplies those without rounding, in any order.
const exactBelow = float64(1 << 50)

// perDimSums computes exactly what sumTiles(exact) computes, from the
// T₀+T₁+… tiles of one axis cross instead of all T₀·T₁·… tiles.
//
// Every access reads one consumer variable and every dimension of an owned
// box follows one anchor dimension, so each dimension of each member's
// required region (and of each external read region) is a function of the
// tile index along the tiled anchor dimensions it transitively derives
// from. When that is at most one anchor dimension per region dimension, the
// one its owned box follows (tileAxes), the extent of a region dimension at
// tile (t₀,t₁,…) is its extent at the cross tile (…,tₐ,…) of its axis a, and
// a tile's sizes, row counts and owned intersections are products of
// per-axis factors. The one coupling between dimensions in Required is that
// a member with an empty region propagates nothing; the probes establish
// that no member is empty on the cross, which by induction from the
// consumers makes every member non-empty, with the tabulated extents, on
// every tile. Runs of cross tiles with equal factors are counted once with
// a multiplicity.
//
// ok is false — and the caller walks every tile — when the structure or a
// probe rules the table out, when a probe fails (sumTiles reports the
// error), or when the sums could reach 2^50 points, beyond the range in
// which float64 is exact for them: inside it, re-associating the sums
// cannot change a bit of the result.
func (tp *TilePlan) perDimSums() (sums tileSums, ok bool) {
	bound := 0.0
	for i := range tp.members {
		bound += (1 + rowOverheadPoints) * boxPoints(tp.members[i].dom)
	}
	for _, e := range tp.ext {
		bound += boxPoints(e.dom)
	}
	if bound*float64(tp.NumTiles()) >= exactBelow {
		return sums, false
	}
	memAxis, extAxis, ok := tp.tileAxes()
	if !ok {
		return sums, false
	}

	nM, nE := len(tp.members), len(tp.ext)
	req, owned, ext := tp.MemberBoxes(), tp.MemberBoxes(), tp.ExtBoxes()
	idx := make([]int64, len(tp.TileCounts))
	probe := func() bool {
		if tp.RequiredInto(idx, req) != nil {
			return false
		}
		for i, b := range req {
			if b.Empty() {
				return false
			}
			tp.OwnedInto(owned[i], i, idx)
		}
		return tp.ExternalInto(req, ext) == nil
	}
	// factors lays out, for the probed tile, the product over the region
	// dimensions on one axis (−1: the tile-independent dimensions) of each
	// member's extent, row count (extent without the innermost dimension)
	// and owned intersection, then of each external read's extent.
	factors := func(axis int) []int64 {
		f := make([]int64, 3*nM+nE)
		for i, b := range req {
			size, rows, in := int64(1), int64(1), int64(1)
			for d, r := range b {
				if memAxis[i][d] != axis {
					continue
				}
				size *= r.Size()
				if d < len(b)-1 {
					rows *= r.Size()
				}
				in *= owned[i][d].Intersect(r).Size()
			}
			f[3*i], f[3*i+1], f[3*i+2] = size, rows, in
		}
		for e, b := range ext {
			sz := int64(1)
			for d, r := range b {
				if extAxis[e][d] == axis {
					sz *= r.Size()
				}
			}
			f[3*nM+e] = sz
		}
		return f
	}

	if !probe() {
		return sums, false
	}
	fixed := factors(-1)
	type class struct {
		n int64 // cross tiles with these factors
		f []int64
	}
	var axes [][]class
	for a, count := range tp.TileCounts {
		if count <= 1 {
			continue
		}
		var cls []class
		for t := int64(0); t < count; t++ {
			idx[a] = t
			if !probe() {
				return sums, false
			}
			f := factors(a)
			if last := len(cls) - 1; last >= 0 && slices.Equal(cls[last].f, f) {
				cls[last].n++
			} else {
				cls = append(cls, class{1, f})
			}
		}
		idx[a] = 0
		axes = append(axes, cls)
	}

	// One pass per combination of classes: the tile loop of sumTiles over
	// the reduced grid, each combination weighted by the tiles it stands for.
	sums.ext = make([]float64, nE)
	pick := make([]int, len(axes))
	cur := make([]int64, len(fixed))
	for {
		copy(cur, fixed)
		tiles := 1.0
		for k, cls := range axes {
			c := cls[pick[k]]
			tiles *= float64(c.n)
			for j, v := range c.f {
				cur[j] *= v
			}
		}
		work := 0.0
		for i := 0; i < nM; i++ {
			size, rows, in := cur[3*i], cur[3*i+1], cur[3*i+2]
			sums.compute += (float64(size) + rowOverheadPoints*float64(rows)) * tiles
			sums.recompute += float64(size-in) * tiles
			work += float64(size)
		}
		for e, sz := range cur[3*nM:] {
			sums.ext[e] += float64(sz) * tiles
			work += float64(sz)
		}
		if work > budgetPts {
			sums.footprint += (work - budgetPts) * tiles
		}
		k := len(pick) - 1
		for ; k >= 0; k-- {
			if pick[k]++; pick[k] < len(axes[k]) {
				break
			}
			pick[k] = 0
		}
		if k < 0 {
			return sums, true
		}
	}
}

// boxPoints is Box.Size in float64, which cannot overflow.
func boxPoints(b affine.Box) float64 {
	p := 1.0
	for _, r := range b {
		p *= float64(r.Size())
	}
	return p
}

// tileAxes reports, for every dimension of every member's required region
// and of every external read region, the one tiled anchor dimension its
// range can vary with across tiles (−1: none). ok is false when some region
// dimension derives from two tiled anchor dimensions (a transposed in-group
// access, a producer dimension fed by two consumer variables) or from an
// index the masks do not model: a non-affine in-group access, which
// Required refuses, or a variable outside the reader's output domain (a
// reduction variable), charged to every tiled dimension.
func (tp *TilePlan) tileAxes() (mem, ext [][]int, ok bool) {
	if len(tp.TileCounts) > 64 {
		return nil, nil, false
	}
	var all uint64
	tiled := func(a int) uint64 {
		if a >= 0 && a < len(tp.TileCounts) && tp.TileCounts[a] > 1 {
			return 1 << uint(a)
		}
		return 0
	}
	for a := range tp.TileCounts {
		all |= tiled(a)
	}
	// Every member's owned box follows its scales (OwnedInto): it seeds the
	// live-outs' regions, and the recompute term intersects it with the
	// region of every member, so a region dimension must vary with the same
	// anchor dimension its owned box does.
	mm := make([][]uint64, len(tp.members))
	for i := range tp.members {
		pm := &tp.members[i]
		mm[i] = make([]uint64, len(pm.dom))
		for d := range mm[i] {
			if pm.anchor {
				mm[i][d] = tiled(d)
			} else {
				mm[i][d] = tiled(pm.scales[d].AnchorDim)
			}
		}
	}
	em := make([][]uint64, len(tp.ext))
	for e := range em {
		em[e] = make([]uint64, len(tp.ext[e].dom))
	}
	// Consumers before producers, so a member's masks are final when its
	// accesses hand them on.
	for i := len(tp.members) - 1; i >= 0; i-- {
		for _, a := range tp.members[i].in {
			if !a.OK {
				return nil, nil, false
			}
			if a.Acc.Var >= 0 {
				mm[a.target][a.ProducerDim] |= mm[i][a.Acc.Var]
			}
		}
		for _, a := range tp.members[i].out {
			switch {
			case !a.OK:
				// Widened to the producer's whole extent on every tile.
			case a.Acc.Var >= len(mm[i]):
				em[a.target][a.ProducerDim] |= all
			case a.Acc.Var >= 0:
				em[a.target][a.ProducerDim] |= mm[i][a.Acc.Var]
			}
		}
	}
	axes := func(masks [][]uint64) ([][]int, bool) {
		out := make([][]int, len(masks))
		for i, ms := range masks {
			out[i] = make([]int, len(ms))
			for d, m := range ms {
				if m&(m-1) != 0 {
					return nil, false
				}
				out[i][d] = bits.TrailingZeros64(m)
				if m == 0 {
					out[i][d] = -1
				}
			}
		}
		return out, true
	}
	if mem, ok = axes(mm); !ok {
		return nil, nil, false
	}
	if ext, ok = axes(em); !ok {
		return nil, nil, false
	}
	return mem, ext, true
}

// pipelineCosts prices the groups of one graph over one set of graph tables
// and one resolution of the options.
func pipelineCosts(g *pipeline.Graph, groups []*Group, est map[string]int64, ao AutoOptions) ([]GroupCost, error) {
	ao = ao.withDefaults()
	gi := newGraphInfo(g, est)
	costs := make([]GroupCost, len(groups))
	for i, grp := range groups {
		tp, err := newTilePlan(gi, grp)
		if err == nil {
			costs[i], _, err = evalGroupCost(tp, ao, true)
		}
		if err != nil {
			return nil, fmt.Errorf("schedule: cost of group %s: %w", grp.Anchor, err)
		}
	}
	return costs, nil
}

// PipelineCost prices a whole grouping: per-group breakdowns plus the
// weighted total under DefaultCostWeights.
func PipelineCost(g *pipeline.Graph, groups []*Group, est map[string]int64, ao AutoOptions) (float64, []GroupCost, error) {
	costs, err := pipelineCosts(g, groups, est, ao)
	if err != nil {
		return 0, nil, err
	}
	w := DefaultCostWeights()
	total := 0.0
	for _, c := range costs {
		total += w.Total(c)
	}
	return total, costs, nil
}

// PipelineTerms sums the model's term vector over a grouping — what
// internal/autotune ranks schedules by against measured wall clocks.
func PipelineTerms(gr *Grouping, ao AutoOptions) ([5]float64, error) {
	var v [5]float64
	costs, err := pipelineCosts(gr.Graph, gr.Groups, gr.Est, ao)
	if err != nil {
		return v, err
	}
	for _, c := range costs {
		cv := c.Vector()
		for i := range v {
			v[i] += cv[i]
		}
	}
	return v, nil
}
