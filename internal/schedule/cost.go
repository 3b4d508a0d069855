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
// what the descent in search.go minimizes.

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

// tileWalk says how evalGroupCost enumerated a group's tiles: perDim, from
// a per-dimension table (perDimSums) rather than one by one or, beyond
// exactTileCap, extrapolated (sumTiles); probes, the tiles perDimSums
// probed, whether or not it could build the table.
type tileWalk struct {
	perDim bool
	probes int
}

// evalGroupCost prices the group of a tile plan under resolved options
// (AutoOptions.withDefaults). perDim permits the per-dimension enumeration
// where it applies; without it every exact evaluation walks every tile, the
// reference the fast path is held to bit for bit.
func evalGroupCost(tp *TilePlan, ao AutoOptions, perDim bool) (c GroupCost, walk tileWalk, err error) {
	grp := tp.Group
	c = GroupCost{Tiles: tp.NumTiles()}

	// Live-out writes are tile-independent: each live-out's full domain is
	// written exactly once per run (tiles own disjoint regions).
	for i := range tp.members {
		if !tp.members[i].live {
			continue
		}
		size := float64(tp.members[i].dom.Size())
		c.Traffic += size * trafficFactor(size)
	}

	// Per-tile terms: exact when the tile count is within the cap,
	// interior-tile extrapolation beyond it.
	c.Exact = c.Tiles <= exactTileCap
	var sums tileSums
	if c.Exact && perDim {
		sums, walk.probes, walk.perDim = tp.perDimSums()
	}
	if !walk.perDim {
		if sums, err = tp.sumTiles(c.Exact); err != nil {
			return GroupCost{}, walk, err
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
		c.Traffic += distinct*trafficFactor(distinct) + rereadDiscount*(sum-distinct)
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
	return c, walk, nil
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
// tiles of one axis cross instead of all T₀·T₁·… tiles, and along each
// axis from its clamped ends and one period instead of every tile.
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
// every tile.
//
// Along one axis the factors repeat: off the tiles where a domain clamps a
// bound, every bound moves by a fixed amount every P tiles (axisDrift), and
// the clamp-free tiles are one run [A, B] (clampRun). So the cross tiles are
// the clamped prefix and suffix, probed one by one, and the run, probed for
// one period whose tiles stand for every tile of the run congruent to them
// modulo P. An axis whose bounds do not all move alike is probed tile by
// tile. Runs of equal factors are counted once with a multiplicity.
//
// probes counts the tiles probed. ok is false — and the caller walks every
// tile — when the structure or a probe rules the table out, when a probe
// fails (sumTiles reports the error), or when the sums could reach 2^50
// points, beyond the range in which float64 is exact for them: inside it,
// re-associating the sums cannot change a bit of the result.
func (tp *TilePlan) perDimSums() (sums tileSums, probes int, ok bool) {
	bound := 0.0
	for i := range tp.members {
		bound += (1 + rowOverheadPoints) * boxPoints(tp.members[i].dom)
	}
	for _, e := range tp.ext {
		bound += boxPoints(e.dom)
	}
	if bound*float64(tp.NumTiles()) >= exactBelow {
		return sums, 0, false
	}
	memAxis, extAxis, ok := tp.tileAxes()
	if !ok {
		return sums, 0, false
	}

	nM, nE := len(tp.members), len(tp.ext)
	req, owned, ext := tp.MemberBoxes(), tp.MemberBoxes(), tp.ExtBoxes()
	idx := make([]int64, len(tp.TileCounts))
	// factors lays out, for the probed tile, the product over the region
	// dimensions on one axis (−1: the tile-independent dimensions) of each
	// member's extent, row count (extent without the innermost dimension)
	// and owned intersection, then of each external read's extent.
	f := make([]int64, 3*nM+nE)
	factors := func(axis int) {
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
	}
	// nonEmpty is the probes' check that every member is required.
	nonEmpty := func() bool {
		for _, b := range req {
			if b.Empty() {
				return false
			}
		}
		return true
	}

	// The tile-independent dimensions, from the first tile.
	probes++
	if tp.RequiredInto(idx, req) != nil || !nonEmpty() {
		return sums, probes, false
	}
	for i := range owned {
		tp.OwnedInto(owned[i], i, idx)
	}
	if tp.ExternalInto(req, ext) != nil {
		return sums, probes, false
	}
	factors(-1)
	fixed := slices.Clone(f)
	// Each axis walk starts from the first tile's boxes and is undone after
	// it, so the dimensions off the walked axis hold their values at tile 0
	// of their axes, where idx puts them: every probe's boxes are those of
	// RequiredInto, OwnedInto and ExternalInto at idx.
	boxes := slices.Concat(req, owned, ext)
	first := make([]affine.Box, len(boxes))
	for k, b := range boxes {
		first[k] = b.Clone()
	}
	restore := func() {
		for k, b := range boxes {
			copy(b, first[k])
		}
	}

	type class struct {
		n int64 // cross tiles with these factors
		f []int64
	}
	var axes [][]class
	u := tp.MemberBoxes()
	for a, count := range tp.TileCounts {
		if count <= 1 {
			continue
		}
		var cls []class
		// add probes cross tile t of axis a and counts it n times.
		add := func(t, n int64) bool {
			probes++
			idx[a] = t
			if tp.axisProbe(a, idx, memAxis, extAxis, req, owned, ext) != nil || !nonEmpty() {
				return false
			}
			factors(a)
			if last := len(cls) - 1; last >= 0 && slices.Equal(cls[last].f, f) {
				cls[last].n += n
			} else {
				cls = append(cls, class{n, slices.Clone(f)})
			}
			return true
		}
		// The clamp-free run [lo, hi], and the period it repeats with:
		// none (lo > hi) without a drift, every tile then probed alone.
		lo, hi, period := count, count-1, int64(1)
		if ad, periodic := tp.axisDrift(a, memAxis, extAxis); periodic {
			if l, h, ok := tp.clampRun(a, &ad, u); ok {
				lo, hi, period = l, h, ad.period
			}
		}
		for t := int64(0); t < count; t++ {
			n := int64(1)
			if t >= lo && t <= hi {
				if t == lo+period {
					t = hi // the run's first period stands for all of it
					continue
				}
				n = (hi-t)/period + 1
			}
			if !add(t, n) {
				return sums, probes, false
			}
		}
		idx[a] = 0
		restore()
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
			return sums, probes, true
		}
	}
}

// drift is how a region bound moves along a tile axis where no domain clamps
// it: from tile t to tile t+p it moves by q, at every t (p = 0: no bound
// yet). A composition of floor-affine maps of the tile index drifts so:
// an owned bound r.Lo + ⌊n·ts·t/d⌋ by q = n·ts/g every p = d/g tiles
// (g = gcd(n·ts, d)), and ⌊(c·v + o)/k⌋ of a bound v that drifts (p, q) by
// c·q·m/k every p·m tiles, m = k/gcd(c·q, k).
type drift struct{ p, q int64 }

// driftLimit bounds the periods and moves axisDrift derives, far below
// where their products could overflow; a chain beyond it is probed tile by
// tile.
const driftLimit = 1 << 24

// through is the drift of an access's value when its variable drifts by d.
func (d drift) through(acc affine.Access) (drift, bool) {
	if d.q == 0 || acc.Coeff == 0 {
		return drift{1, 0}, true
	}
	if acc.Coeff > driftLimit || acc.Coeff < -driftLimit {
		return drift{}, false
	}
	cq := acc.Coeff * d.q
	g := gcd64(abs64(cq), acc.Div)
	out := drift{d.p * (acc.Div / g), cq / g}
	return out, out.p <= driftLimit && abs64(out.q) <= driftLimit
}

// join is the drift of the hull of two bounds: both must move at the same
// rate q/p (the hull of bounds that move apart, or in opposite directions,
// is not periodic and may not be monotone), and it repeats every lcm of
// their periods.
func (d drift) join(o drift) (drift, bool) {
	if d.p == 0 {
		return o, true
	}
	if d.q*o.p != o.q*d.p {
		return drift{}, false
	}
	p := d.p / gcd64(d.p, o.p) * o.p
	out := drift{p, d.q * (p / d.p)}
	return out, out.p <= driftLimit && abs64(out.q) <= driftLimit
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}

// axisDrift is the periodic structure of one tile axis: the period after
// which every region dimension on it has moved by a whole number of its own
// periods, and how far each has then moved (0: it does not move). Both
// bounds of a dimension and its owned range move alike, so over a period
// every factor perDimSums tabulates repeats.
type axisDrift struct {
	period   int64
	mem, ext [][]int64
}

// axisDrift derives, from the access chain of every region dimension on
// tile axis a, how it drifts, in the order RequiredInto propagates. Every
// member's owned range joins its dimension whether or not it seeds the
// region, so that owned range and region move together and their
// intersection repeats. ok is false when some dimension's pieces move at
// different rates or in opposite directions (two accesses of opposite sign
// into one producer dimension, a constant index beside a moving one), when
// a live member's owned range can be empty on some tile (scale·ts < 1), or
// when the axis is a band of NewBandPlan: its bounds need not be monotone
// in the tile index, and the axis is probed tile by tile.
func (tp *TilePlan) axisDrift(a int, memAxis, extAxis [][]int) (ad axisDrift, ok bool) {
	ts := tp.TileSizes[a]
	if ts <= 0 || ts > driftLimit {
		return ad, false
	}
	mem := make([][]drift, len(tp.members))
	for i := range tp.members {
		pm := &tp.members[i]
		mem[i] = make([]drift, len(pm.dom))
		for d := range pm.dom {
			if memAxis[i][d] != a {
				continue
			}
			switch ds := pm.scales[d]; {
			case pm.anchor:
				mem[i][d] = drift{1, ts}
			case ds.AnchorDim != a:
				mem[i][d] = drift{1, 0}
			default:
				n, den := ds.Scale.Num, ds.Scale.Den
				if n <= 0 || den <= 0 || n > driftLimit || den > driftLimit || (pm.live && n*ts < den) {
					return ad, false
				}
				g := gcd64(n*ts, den)
				mem[i][d] = drift{den / g, n * ts / g}
			}
		}
	}
	ext := make([][]drift, len(tp.ext))
	for e := range ext {
		ext[e] = make([]drift, len(tp.ext[e].dom))
	}
	// fold joins the drift of an access's value, read by member i, into the
	// drift of the dimension it indexes.
	fold := func(i int, acc *planAccess, slot *drift) bool {
		src, ok := drift{1, 0}, true
		if v := acc.Acc.Var; acc.OK && v >= 0 && v < len(mem[i]) && memAxis[i][v] == a {
			src, ok = mem[i][v].through(acc.Acc)
		}
		if ok {
			*slot, ok = slot.join(src)
		}
		return ok
	}
	for i := len(tp.members) - 1; i >= 0; i-- {
		pm := &tp.members[i]
		for k := range pm.in {
			acc := &pm.in[k]
			if memAxis[acc.target][acc.ProducerDim] == a && !fold(i, acc, &mem[acc.target][acc.ProducerDim]) {
				return ad, false
			}
		}
		for k := range pm.out {
			acc := &pm.out[k]
			if extAxis[acc.target][acc.ProducerDim] == a && !fold(i, acc, &ext[acc.target][acc.ProducerDim]) {
				return ad, false
			}
		}
	}
	ad.period = 1
	for _, ds := range [][][]drift{mem, ext} {
		for _, row := range ds {
			for _, dr := range row {
				if dr.q != 0 {
					ad.period = ad.period / gcd64(ad.period, dr.p) * dr.p
					if ad.period > driftLimit {
						return ad, false
					}
				}
			}
		}
	}
	shifts := func(ds [][]drift) [][]int64 {
		out := make([][]int64, len(ds))
		for i, row := range ds {
			out[i] = make([]int64, len(row))
			for d, dr := range row {
				if dr.q != 0 {
					out[i][d] = dr.q * (ad.period / dr.p)
				}
			}
		}
		return out
	}
	ad.mem, ad.ext = shifts(mem), shifts(ext)
	return ad, true
}

// clampRun derives the clamp-free run [lo, hi] of tile axis a: the tiles
// where no domain clamps a bound moving along the axis — not the last tile
// (whose owned ranges end at the domain edge), no owned range leaving its
// member's domain, no access's range leaving its producer's. There every
// moving region is its unclamped chain of floor-affine maps, which drifts
// as axisDrift says, so the factors repeat every period.
//
// The chain is evaluated without clamps (into u) at the first tile of each
// residue r modulo the period; a bound that is v there is v + k·s at tile
// r + k·period, s its dimension's move, so each edge test becomes a bound on
// k and each residue's clamp-free tiles a range of k. Each test compares a
// monotone bound with a constant, so it passes on one run of tiles, and so
// does their conjunction: the residues' ranges must tile one run, or ok is
// false (as it is when a region is empty without clamps) and the axis is
// probed tile by tile. lo > hi when no tile is clamp-free.
func (tp *TilePlan) clampRun(a int, ad *axisDrift, u []affine.Box) (lo, hi int64, ok bool) {
	last := tp.TileCounts[a] - 2 // the last tile that can be clamp-free
	ts, period := tp.TileSizes[a], ad.period
	residues := min(period, last+1)
	kLo, kHi := make([]int64, residues), make([]int64, residues)
	for r := int64(0); r < residues; r++ {
		kl, kh := int64(0), (last-r)/period
		// atLeast and atMost bound k by v + k·s ≥ lim and v + k·s ≤ lim.
		atLeast := func(v, lim, s int64) {
			if s > 0 {
				kl = max(kl, affine.CeilDiv(lim-v, s))
			} else {
				kh = min(kh, affine.FloorDiv(v-lim, -s))
			}
		}
		atMost := func(v, lim, s int64) {
			if s > 0 {
				kh = min(kh, affine.FloorDiv(lim-v, s))
			} else {
				kl = max(kl, affine.CeilDiv(v-lim, -s))
			}
		}
		within := func(rng, dom affine.Range, s int64) {
			atLeast(rng.Lo, dom.Lo, s)
			atMost(rng.Hi, dom.Hi, s)
		}
		for i := range tp.members {
			pm := &tp.members[i]
			for d, dom := range pm.dom {
				s := ad.mem[i][d]
				if s == 0 {
					continue
				}
				var o affine.Range
				if pm.anchor {
					o = affine.Range{Lo: dom.Lo + r*ts, Hi: dom.Lo + r*ts + ts - 1}
				} else {
					sc := pm.scales[d].Scale
					o = affine.Range{Lo: dom.Lo + sc.ScaleFloor(r*ts), Hi: dom.Lo + sc.ScaleFloor((r+1)*ts) - 1}
				}
				within(o, dom, s)
				u[i][d] = emptyRange
				if pm.live {
					u[i][d] = o
				}
			}
		}
		// reach is an access's unclamped range; false when it is empty or
		// has no value.
		reach := func(i int, acc *planAccess) (affine.Range, bool) {
			rng, err := acc.rangeOver(u[i][acc.Acc.Var])
			return rng, err == nil && !rng.Empty()
		}
		for i := len(tp.members) - 1; i >= 0; i-- {
			pm := &tp.members[i]
			for k := range pm.in {
				acc := &pm.in[k]
				p, d := acc.target, acc.ProducerDim
				if s := ad.mem[p][d]; s != 0 {
					rng, ok := reach(i, acc)
					if !ok {
						return 0, 0, false
					}
					within(rng, tp.members[p].dom[d], s)
					u[p][d] = u[p][d].Union(rng)
				}
			}
			for k := range pm.out {
				acc := &pm.out[k]
				e, d := acc.target, acc.ProducerDim
				if s := ad.ext[e][d]; s != 0 {
					rng, ok := reach(i, acc)
					if !ok {
						return 0, 0, false
					}
					within(rng, tp.ext[e].dom[d], s)
				}
			}
		}
		kLo[r], kHi[r] = kl, kh
	}
	// The run spans the residues' ranges; each residue's range must be the
	// run's tiles of that residue.
	lo, hi = last+1, -1
	for r := int64(0); r < residues; r++ {
		if kLo[r] <= kHi[r] {
			lo, hi = min(lo, r+kLo[r]*period), max(hi, r+kHi[r]*period)
		}
	}
	for r := int64(0); r < residues && lo <= hi; r++ {
		wantLo := max(0, affine.CeilDiv(lo-r, period))
		wantHi := affine.FloorDiv(hi-r, period)
		if kLo[r] <= kHi[r] || wantLo <= wantHi {
			if kLo[r] != wantLo || kHi[r] != wantHi {
				return 0, 0, false
			}
		}
	}
	return lo, hi, true
}

// axisProbe is RequiredInto, OwnedInto and ExternalInto at tile idx
// restricted to the region dimensions on tile axis a. A dimension on axis
// a derives only from dimensions on a and tile-independent ones (tileAxes),
// and the caller keeps every other dimension at its value at idx, so the
// boxes end as those three would leave them.
func (tp *TilePlan) axisProbe(a int, idx []int64, memAxis, extAxis [][]int, req, owned, ext []affine.Box) error {
	for i := range tp.members {
		for d := range owned[i] {
			if memAxis[i][d] != a {
				continue
			}
			o := tp.ownedRange(i, d, idx)
			owned[i][d], req[i][d] = o, emptyRange
			if tp.members[i].live {
				req[i][d] = o
			}
		}
	}
	// propagate folds one access's range, clamped to dom, into slot.
	propagate := func(acc *planAccess, crq affine.Box, dom affine.Range, slot *affine.Range) error {
		var varRange affine.Range
		if acc.Acc.Var >= 0 {
			varRange = crq[acc.Acc.Var]
		}
		rng, err := acc.rangeOver(varRange)
		if err != nil {
			return err
		}
		*slot = slot.Union(rng.Intersect(dom))
		return nil
	}
	for i := len(tp.members) - 1; i >= 0; i-- {
		crq := req[i]
		if crq.Empty() {
			continue
		}
		in := tp.members[i].in
		for k := range in {
			acc := &in[k]
			p, d := acc.target, acc.ProducerDim
			if memAxis[p][d] != a {
				continue
			}
			if err := propagate(acc, crq, tp.members[p].dom[d], &req[p][d]); err != nil {
				return err
			}
		}
	}
	for e, b := range ext {
		for d := range b {
			if extAxis[e][d] == a {
				b[d] = emptyRange
			}
		}
	}
	for i := range tp.members {
		crq := req[i]
		if crq.Empty() {
			continue
		}
		pm := &tp.members[i]
		for k := range pm.out {
			acc := &pm.out[k]
			e, d := acc.target, acc.ProducerDim
			if extAxis[e][d] != a {
				continue
			}
			edom := tp.ext[e].dom[d]
			if pm.widens(acc) {
				ext[e][d] = ext[e][d].Union(edom)
				continue
			}
			if err := propagate(acc, crq, edom, &ext[e][d]); err != nil {
				return err
			}
		}
	}
	return nil
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
// Required refuses. An out-of-group read that widens to the producer's
// whole extent (planMember.widens) varies with no tile.
func (tp *TilePlan) tileAxes() (mem, ext [][]int, ok bool) {
	if len(tp.TileCounts) > 64 {
		return nil, nil, false
	}
	tiled := func(a int) uint64 {
		if a >= 0 && a < len(tp.TileCounts) && tp.TileCounts[a] > 1 {
			return 1 << uint(a)
		}
		return 0
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
		pm := &tp.members[i]
		for k := range pm.out {
			switch a := &pm.out[k]; {
			case pm.widens(a):
				// Widened to the producer's whole extent on every tile.
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
