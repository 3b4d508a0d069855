// Package schedule implements the core optimizations of the paper:
// alignment and scaling of stage schedules (Section 3.3), construction of
// overlapped tiles for groups of heterogeneous stages (Section 3.4), and the
// greedy grouping heuristic of Algorithm 1 (Section 3.5).
//
// Where the paper manipulates scheduling hyperplanes through ISL, this
// implementation works directly on the box domains the pipelines use: tile
// shapes are obtained by propagating required intervals backwards through
// the quasi-affine accesses, stage by stage, which yields the same tight
// overlapped-tile regions as the per-level dependence-vector analysis of
// Figure 6 (see DESIGN.md, substitution note 1).
package schedule

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/affine"
	"repro/internal/pipeline"
)

// DimScale records how one dimension of a group member tracks the group
// anchor's iteration space: stage_dim ≈ Scale · anchor_dim + offset. It is
// the alignment/scaling information of Section 3.3.
type DimScale struct {
	AnchorDim int             // anchor dimension this stage dim is aligned to; -1 if unaligned
	Scale     affine.Rational // sampling-rate ratio relative to the anchor
}

// Group is a set of stages fused together and executed with overlapped
// tiling. The zero group (single stage, untiled) is also used for stages
// excluded from fusion (accumulators, self-referencing and tiny stages).
type Group struct {
	ID      int
	Members []string // topological order, producers first
	Anchor  string   // the group's sink stage; its domain defines the tile space
	// Scales maps each member to its per-dimension alignment/scaling
	// relative to the anchor. Populated for multi-stage groups.
	Scales map[string][]DimScale
	// Tiled reports whether the group executes with overlapped tiling.
	Tiled bool
	// TileSizes has one entry per anchor dimension (0 = dimension untiled).
	TileSizes []int64
	// OverlapRatio per anchor dimension: redundant-computation fraction
	// estimated at the parameter estimates (Algorithm 1 line 11).
	OverlapRatio []float64
	// Cost is the auto-scheduler's modeled cost breakdown for this group,
	// populated when Options.Auto drove the grouping (nil under the plain
	// Algorithm 1 heuristic).
	Cost *GroupCost
}

// Grouping is the result of Algorithm 1: a partition of the pipeline's
// stages into groups, in a valid execution order.
type Grouping struct {
	Groups []*Group          // topological order over the quotient DAG
	ByName map[string]*Group // stage name -> its group
	Graph  *pipeline.Graph   // underlying pipeline
	Est    map[string]int64  // parameter estimates used

	// Searched reports that the cost-model search (Options.Auto)
	// produced this grouping; ModelCost is its weighted model cost and
	// Search the search-effort counters. All zero under Algorithm 1.
	Searched  bool
	ModelCost float64
	Search    *SearchStats
}

// Digest is a short hash of the schedule actually chosen — every group's
// anchor, members, tiled flag and tile sizes, whatever order the groups are
// listed in — and of nothing else (not the graph, not the options that led
// here), so two programs of one pipeline share it exactly when they run
// the same plan.
func (gr *Grouping) Digest() string {
	parts := make([]string, len(gr.Groups))
	for i, g := range gr.Groups {
		parts[i] = fmt.Sprintf("%s|%v|%v|%v", g.Anchor, g.Members, g.Tiled, g.TileSizes)
	}
	sort.Strings(parts)
	sum := sha256.Sum256([]byte(strings.Join(parts, ";")))
	return hex.EncodeToString(sum[:8])
}

// Options tunes grouping and tiling.
type Options struct {
	// TileSizes are assigned to the anchor's tilable dimensions from
	// outermost to innermost; the last entry repeats if there are more
	// tilable dimensions than entries. Default {32, 256} (the paper's
	// Figure 7 uses 32×256 for Harris).
	TileSizes []int64
	// OverlapThreshold is Algorithm 1's o_thresh (paper autotunes over
	// {0.2, 0.4, 0.5}).
	OverlapThreshold float64
	// MinSize: stages whose domain (at the estimates) is smaller than this
	// are never merged (the paper keeps "functions of very small size",
	// such as lookup tables, out of groups).
	MinSize int64
	// MinTileExtent: dimensions with extent below this stay untiled.
	MinTileExtent int64
	// MaxUnalignedExtent bounds the extent of unaligned member dimensions
	// (e.g. a channel dimension accessed at constant indices) that a tile
	// must materialize fully.
	MaxUnalignedExtent int64
	// DisableFusion keeps every stage in its own group (the PolyMage
	// "base" variant of Figure 10, which still inlines but does not group,
	// tile or optimize storage).
	DisableFusion bool
	// Auto replaces Algorithm 1's single-threshold greedy merge with the
	// cost-model search (cost.go / search.go): grouping candidates ×
	// per-group tile sizes are searched under an analytical model of
	// memory traffic, halo recompute, parallelism and scratch footprint.
	// OverlapThreshold is ignored when set; the other knobs (MinSize,
	// MinTileExtent, MaxUnalignedExtent, DisableFusion) still apply.
	Auto bool
	// AutoOpts tunes the search (tile candidates, fleet width); nil uses
	// DefaultAutoOptions.
	AutoOpts *AutoOptions
}

// DefaultOptions mirrors the paper's defaults.
func DefaultOptions() Options {
	return Options{
		TileSizes:          []int64{32, 256},
		OverlapThreshold:   0.4,
		MinSize:            1024,
		MinTileExtent:      32,
		MaxUnalignedExtent: 8,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if len(o.TileSizes) == 0 {
		o.TileSizes = d.TileSizes
	}
	if o.OverlapThreshold == 0 {
		o.OverlapThreshold = d.OverlapThreshold
	}
	if o.MinSize == 0 {
		o.MinSize = d.MinSize
	}
	if o.MinTileExtent == 0 {
		o.MinTileExtent = d.MinTileExtent
	}
	if o.MaxUnalignedExtent == 0 {
		o.MaxUnalignedExtent = d.MaxUnalignedExtent
	}
	return o
}

// argAccess is one read of a stage's table (pipeline.Read): one index
// expression of one access, which producer (a stage or an input image) and
// which of its dimensions it indexes, and its quasi-affine form (OK
// reports whether it has one). Read through a graphInfo, off is Acc.Off
// under the graph's binding, or offErr why it has no value there; a tile
// plan probes the access at every tile with them.
type argAccess struct {
	pipeline.Read
	off    int64
	offErr error
}

// rangeOver is Acc.RangeOver(varRange, binding) with the offset evaluated
// once; an unbound parameter errors here, at the probe, as RangeOver would.
func (aa *argAccess) rangeOver(varRange affine.Range) (affine.Range, error) {
	if aa.offErr != nil {
		return affine.Range{}, aa.offErr
	}
	return aa.Acc.RangeAt(aa.off, varRange), nil
}

// inverseOver is Acc.InverseRange(target, binding) with the offset
// evaluated once: the consumer-variable values whose read lands in target,
// and whether any does.
func (aa *argAccess) inverseOver(target affine.Range) (affine.Range, bool, error) {
	if aa.offErr != nil {
		return affine.Range{}, false, aa.offErr
	}
	r, ok := aa.Acc.InverseAt(aa.off, target)
	return r, ok, nil
}

// graphInfo holds what every tile plan of one graph under one parameter
// binding shares: each stage's accesses and the concrete domain of each
// stage and image. The tables are filled when the graphInfo is built and
// only read after, so a search builds one graphInfo and every candidate it
// prices reads the same tables instead of re-walking the members'
// expression trees.
type graphInfo struct {
	g      *pipeline.Graph
	params map[string]int64
	accs   map[string][]argAccess
	doms   map[string]domainInfo
}

// domainInfo is the concrete domain of a stage or an image; known is false
// when the graph has neither under that name.
type domainInfo struct {
	box   affine.Box
	known bool
	err   error
}

// newGraphInfo builds the tables of every stage of the graph and of every
// image they read.
func newGraphInfo(g *pipeline.Graph, params map[string]int64) *graphInfo {
	return graphInfoOf(g, params, g.Order)
}

// graphInfoOf builds the tables of the given stages and of every producer
// they read: all a tile plan of a group of those stages looks up.
func graphInfoOf(g *pipeline.Graph, params map[string]int64, stages []string) *graphInfo {
	gi := &graphInfo{
		g:      g,
		params: params,
		accs:   make(map[string][]argAccess, len(stages)),
		doms:   make(map[string]domainInfo),
	}
	for _, name := range stages {
		gi.addDomain(name)
		reads := g.Stages[name].Reads
		a := make([]argAccess, 0, len(reads))
		for _, r := range reads {
			if r.Site == pipeline.AccWrite {
				continue
			}
			aa := argAccess{Read: r}
			if r.OK {
				aa.off, aa.offErr = r.Acc.Off.Eval(params)
			}
			gi.addDomain(r.Target)
			a = append(a, aa)
		}
		gi.accs[name] = a
	}
	return gi
}

// addDomain evaluates the domain of a stage, an image or an unknown name
// into the tables, once.
func (gi *graphInfo) addDomain(name string) {
	if _, done := gi.doms[name]; done {
		return
	}
	var di domainInfo
	if st, isStage := gi.g.Stages[name]; isStage {
		di.known = true
		di.box, di.err = domainAt(st, gi.params)
	} else if im, isImage := gi.g.Images[name]; isImage {
		di.known = true
		di.box, di.err = im.Domain().Eval(gi.params)
	}
	gi.doms[name] = di
}

// accesses returns the reads of a stage of the tables, its write left out,
// with the offsets of the quasi-affine ones evaluated under the graph's
// binding.
func (gi *graphInfo) accesses(stage string) []argAccess { return gi.accs[stage] }

// domain returns the concrete domain of a stage or an input image of the
// tables (known is false for any other name).
func (gi *graphInfo) domain(name string) domainInfo { return gi.doms[name] }

// domainAt evaluates a stage's domain at the estimates.
func domainAt(st *pipeline.Stage, est map[string]int64) (affine.Box, error) {
	b, err := st.Decl.Domain().Eval(est)
	if err != nil {
		return nil, fmt.Errorf("schedule: stage %s: %v", st.Name, err)
	}
	return b, nil
}

// groupSize is the total number of domain points of the group's members at
// the estimates (Algorithm 1 sorts candidates by this).
func (gi *graphInfo) groupSize(members []string) int64 {
	var n int64
	for _, m := range members {
		if d := gi.domain(m); d.err == nil {
			n += d.box.Size()
		}
	}
	return n
}

// sortedMembers returns the members in pipeline topological order.
func sortedMembers(g *pipeline.Graph, members map[string]bool) []string {
	out := make([]string, 0, len(members))
	for _, n := range g.Order {
		if members[n] {
			out = append(out, n)
		}
	}
	return out
}

// childGroups returns the set of distinct groups that consume any member of
// grp (excluding grp itself).
func childGroups(g *pipeline.Graph, byName map[string]*Group, grp *Group) []*Group {
	seen := make(map[int]*Group)
	for _, m := range grp.Members {
		for _, c := range g.Stages[m].Consumers {
			cg := byName[c]
			if cg != nil && cg.ID != grp.ID {
				seen[cg.ID] = cg
			}
		}
	}
	out := make([]*Group, 0, len(seen))
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out = append(out, seen[id])
	}
	return out
}
