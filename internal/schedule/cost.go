package schedule

import (
	"fmt"

	"repro/internal/affine"
	"repro/internal/pipeline"
)

// rereadDiscount prices the duplicated (halo-overlap) portion of external
// reads relative to a distinct cold read: adjacent tiles re-read rows that
// are still resident in cache.
const rereadDiscount = 0.25

// trafficFactor scales a buffer's traffic price by how much of it can stay
// cache-resident: a buffer far smaller than the cache budget is read and
// written at hot-cache rates (the re-read discount), one at or beyond the
// budget at full cold price, with a linear ramp between. Without this,
// small-domain pipelines (coarse pyramid levels) over-reward fusion whose
// halo overhead the cache-resident buffers never pay back.
func trafficFactor(pts, budgetPts float64) float64 {
	if budgetPts <= 0 || pts >= budgetPts {
		return 1
	}
	return rereadDiscount + (1-rereadDiscount)*pts/budgetPts
}

// This file is the analytical cost model behind Options.Auto: it prices a
// candidate group (a set of fused stages with tile sizes) in domain points,
// from the same tile-dependence machinery the engine executes — TilePlan's
// Required/OwnedBox give the halo recompute and the external read regions,
// so on small tile counts the model's numbers are not estimates but the
// exact quantities the executor will later measure (obs.StageStats
// RecomputedPoints, GroupStats.Tiles). The weighted sum of the terms is
// what the beam search in search.go minimizes; the weights are fitted from
// benchmark history by internal/autotune.

// CostWeights are the model's coefficients: the relative price of one
// point of each term. Only ratios matter to the search; autotune fits them
// (in ms/point) against measured wall clocks.
type CostWeights struct {
	// Compute prices every evaluated point, halo recompute included, plus
	// the per-row-segment dispatch overhead (AutoOptions.RowOverheadPoints
	// per segment): the engine executes row-major, so a tile's inner extent
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
// re-checks that ranking). cmd/polymage-tune -fit re-derives machine-local
// coefficients via internal/autotune FitWeights. Units are arbitrary —
// the search only compares sums.
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
	// plus RowOverheadPoints per executed row segment (row-major dispatch
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
	// were computed exactly. False when Tiles exceeded AutoOptions'
	// ExactTileCap and the interior tile was extrapolated instead.
	Exact bool
}

// EvalGroupCost prices one group at the parameter estimates. The group
// must be well-formed (members topologically ordered, scales populated for
// multi-stage groups) — exactly what BuildGroups/the search construct.
func EvalGroupCost(g *pipeline.Graph, grp *Group, est map[string]int64, ao AutoOptions) (GroupCost, error) {
	ao = ao.withDefaults()
	tp, err := NewTilePlan(g, grp, est)
	if err != nil {
		return GroupCost{}, err
	}
	c := GroupCost{Tiles: tp.NumTiles()}

	liveOut := make(map[string]bool, len(tp.LiveOuts))
	for _, lo := range tp.LiveOuts {
		liveOut[lo] = true
	}

	budgetPts := float64(ao.CacheBudgetBytes) / 4 // float32 scratch elements

	// Live-out writes are tile-independent: each live-out's full domain is
	// written exactly once per run (tiles own disjoint regions).
	for _, lo := range tp.LiveOuts {
		size := float64(tp.MemberDomain(lo).Size())
		priced := size * trafficFactor(size, budgetPts)
		c.Traffic += priced
		if !g.Stages[lo].LiveOut {
			c.ReducibleTraffic += priced
		}
	}

	// Per-tile terms: exact enumeration when the tile count is within the
	// cap, interior-tile extrapolation beyond it.
	enumerated := c.Tiles
	scale := 1.0
	if c.Tiles <= ao.ExactTileCap {
		c.Exact = true
	} else {
		enumerated, scale = 1, float64(c.Tiles)
	}
	idx := make([]int64, len(tp.TileCounts))
	extSum := make(map[string]float64)
	var reqM, extM map[string]affine.Box
	owned := make(map[string]affine.Box, len(grp.Members))
	for _, m := range grp.Members {
		owned[m] = make(affine.Box, len(tp.MemberDomain(m)))
	}
	for flat := int64(0); flat < enumerated; flat++ {
		if c.Exact {
			tp.TileIndex(flat, idx)
		} else {
			for d, n := range tp.TileCounts {
				idx[d] = n / 2 // interior tile
			}
		}
		reqM, err = tp.Required(idx, reqM)
		if err != nil {
			return GroupCost{}, err
		}
		work := 0.0
		for _, m := range grp.Members {
			b := reqM[m]
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
			c.Compute += (size + ao.RowOverheadPoints*rows) * scale
			// Recomputed points: required minus the tile-owned region —
			// the same quantity the executor's metrics path measures into
			// StageStats.RecomputedPoints.
			ob := owned[m]
			tp.OwnedBoxInto(ob, m, idx)
			in := int64(1)
			for d := range b {
				sz := ob[d].Intersect(b[d]).Size()
				if sz <= 0 {
					in = 0
					break
				}
				in *= sz
			}
			c.Recompute += (size - float64(in)) * scale
			work += size
		}
		extM, err = tp.ExternalReads(reqM, extM)
		if err != nil {
			return GroupCost{}, err
		}
		for target, b := range extM {
			if b.Empty() {
				continue
			}
			sz := float64(b.Size())
			extSum[target] += sz * scale
			work += sz
		}
		// Footprint is the tile's whole working set — member regions
		// (scratch and the live-out slice it writes) plus the external
		// regions it reads. All of it competes for the same cache; counting
		// only scratch lets a tile that barely fits its intermediates but
		// thrashes on inputs look free.
		if work > budgetPts {
			c.FootprintExcess += (work - budgetPts) * scale
		}
	}

	// External reads: distinct bytes stream in once at full price; the
	// per-tile halo overlap re-reads rows adjacent tiles just touched,
	// which stay cache-hot and are priced at a discount. Without the
	// split, tall-tile schedules (more tiles along y, more halo re-reads)
	// look artificially expensive against square ones.
	for target, sum := range extSum {
		distinct := sum
		var dom affine.Box
		var derr error
		if im, isImage := g.Images[target]; isImage {
			dom, derr = im.Domain().Eval(est)
		} else {
			dom, derr = domainAt(g.Stages[target], est)
		}
		if derr == nil {
			if d := float64(dom.Size()); d < distinct {
				distinct = d
			}
		}
		priced := distinct*trafficFactor(distinct, budgetPts) + rereadDiscount*(sum-distinct)
		c.Traffic += priced
		if _, isImage := g.Images[target]; !isImage {
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
	return c, nil
}

// PipelineCost prices a whole grouping: per-group breakdowns plus the
// weighted total under the AutoOptions' weights.
func PipelineCost(g *pipeline.Graph, groups []*Group, est map[string]int64, ao AutoOptions) (float64, []GroupCost, error) {
	ao = ao.withDefaults()
	w := ao.weights()
	total := 0.0
	costs := make([]GroupCost, len(groups))
	for i, grp := range groups {
		c, err := EvalGroupCost(g, grp, est, ao)
		if err != nil {
			return 0, nil, fmt.Errorf("schedule: cost of group %s: %w", grp.Anchor, err)
		}
		costs[i] = c
		total += w.Total(c)
	}
	return total, costs, nil
}

// PipelineTerms sums the model's term vector over a grouping — the feature
// vector internal/autotune regresses against measured wall clocks when
// fitting CostWeights.
func PipelineTerms(gr *Grouping, ao AutoOptions) ([5]float64, error) {
	var v [5]float64
	for _, grp := range gr.Groups {
		c, err := EvalGroupCost(gr.Graph, grp, gr.Est, ao)
		if err != nil {
			return v, err
		}
		cv := c.Vector()
		for i := range v {
			v[i] += cv[i]
		}
	}
	return v, nil
}
