package schedule

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/pipeline"
)

// This file is the auto-scheduler's search (Options.Auto): a deterministic
// greedy descent over grouping candidates × per-group tile sizes, scored by
// the analytical model in cost.go. It replaces Algorithm 1's single
// OverlapThreshold cut: instead of merging whenever an interior tile's
// overlap fraction is below one knob, every candidate merge is priced
// (memory traffic saved vs halo recompute and footprint added, parallelism
// lost) and the cheapest one is taken, one merge per round, until no merge
// lowers the cost. It runs once per compile, on the graph the inline pass
// left (internal/core): inlining is a front-end decision, as in the paper.

// maxSearchStates caps the number of candidates priced per search; the
// descent stops expanding beyond it and keeps the partition it holds. It
// bounds a compile's work and is not a tuning knob: no pipeline of the
// schedule golden table or of generated seeds 41–400 reaches it (the most
// is 129).
const maxSearchStates = 512

// AutoOptions tunes the cost-model search. The zero value means "use the
// defaults" field by field.
type AutoOptions struct {
	// TileCandidates are the per-group tile-size vectors the search
	// chooses between (assigned to anchor dimensions like
	// Options.TileSizes: outermost first, last entry repeating). The
	// deterministic argmin under the model picks one per merged group.
	TileCandidates [][]int64
	// FleetWidth is the worker count the parallelism term assumes;
	// 0 uses runtime.GOMAXPROCS (the engine fleet's own default).
	FleetWidth int
}

// DefaultAutoOptions returns the search defaults.
func DefaultAutoOptions() AutoOptions {
	return AutoOptions{
		TileCandidates: [][]int64{
			{32, 256}, {64, 64}, {128, 128}, {32, 32}, {16, 16}, {8, 8},
		},
		FleetWidth: runtime.GOMAXPROCS(0),
	}
}

func (ao AutoOptions) withDefaults() AutoOptions {
	d := DefaultAutoOptions()
	if len(ao.TileCandidates) == 0 {
		ao.TileCandidates = d.TileCandidates
	}
	if ao.FleetWidth <= 0 {
		ao.FleetWidth = d.FleetWidth
	}
	return ao
}

// SearchStats counts the search's effort.
type SearchStats struct {
	// States is the number of candidates priced: one cost-model
	// evaluation each.
	States int
	// PerDimEvals and EnumeratedEvals split the exact evaluations
	// (GroupCost.Exact) by how they enumerated the group's tiles: from a
	// per-dimension table probed on one axis cross, or tile by tile because
	// the group failed the separability check (cost.go perDimSums). The
	// rest of States extrapolated from one interior tile.
	PerDimEvals     int
	EnumeratedEvals int
	// AxisProbes is the number of tiles the per-dimension enumeration
	// probed, summed over the evaluations: the clamped ends and one period
	// of every tiled axis, or every tile of an axis whose bounds do not
	// repeat.
	AxisProbes int
}

// searchState is one partition of the stages into groups. Group objects
// are immutable during the search and shared between states.
type searchState struct {
	groups []*Group
	byName map[string]*Group
	total  float64 // weighted model cost under the searcher's weights
}

// searcher holds the per-search context.
type searcher struct {
	g     *pipeline.Graph
	opts  Options
	ao    AutoOptions
	w     CostWeights
	stats SearchStats
	// gi holds the access tables and domains every candidate's tile plan
	// reads.
	gi *graphInfo
	// nextID hands out group IDs above every seed ID so IDs stay unique
	// within any state.
	nextID int
}

// newSearcher sets up one search of g at the estimates est.
func newSearcher(g *pipeline.Graph, est map[string]int64, opts Options) *searcher {
	opts = opts.withDefaults()
	var ao AutoOptions
	if opts.AutoOpts != nil {
		ao = *opts.AutoOpts
	}
	return &searcher{
		g: g, opts: opts, ao: ao.withDefaults(), w: DefaultCostWeights(),
		gi: newGraphInfo(g, est), nextID: len(g.Order) + 1,
	}
}

// SearchGroups is the Options.Auto entry point: it replaces Algorithm 1's
// greedy threshold merge with the cost-model descent. The result is a
// valid Grouping exactly like BuildGroups produces, with Searched,
// ModelCost, Search and per-group Cost populated.
//
// The descent starts from the cheapest seed and each round moves to the
// cheapest successor expand offers, the first in expand's anchor order on
// a tie. It stops when that successor does not model cheaper than the
// partition it holds, so the result is a local minimum under single
// merges (or the partition held when maxSearchStates ran out).
func SearchGroups(g *pipeline.Graph, est map[string]int64, opts Options) (*Grouping, error) {
	s := newSearcher(g, est, opts)
	seeds, err := s.seedStates()
	if err != nil {
		return nil, err
	}
	cur := seeds[0]
	for _, st := range seeds[1:] {
		if st.total < cur.total {
			cur = st
		}
	}
	for s.stats.States < maxSearchStates {
		var next *searchState
		for _, st := range s.expand(cur) {
			if next == nil || st.total < next.total {
				next = st
			}
		}
		if next == nil || next.total >= cur.total {
			break
		}
		cur = next
	}

	gr := &Grouping{
		Groups:    cur.groups,
		ByName:    make(map[string]*Group, len(g.Order)),
		Graph:     g,
		Est:       est,
		Searched:  true,
		ModelCost: cur.total,
		Search:    &s.stats,
	}
	for _, grp := range gr.Groups {
		for _, m := range grp.Members {
			gr.ByName[m] = grp
		}
	}
	if err := orderGroups(gr); err != nil {
		return nil, err
	}
	return gr, nil
}

// seedStates builds the search's starting partitions: the all-singleton
// partition, the greedy Algorithm 1 partition (so the searched schedule is
// never worse than the default in model space), and the greedy partition
// with every merged group's tiles re-chosen by the model.
func (s *searcher) seedStates() ([]*searchState, error) {
	// All singletons.
	singles := make([]*Group, 0, len(s.g.Order))
	for i, name := range s.g.Order {
		grp, err := s.singletonGroup(name, i)
		if err != nil {
			return nil, err
		}
		singles = append(singles, grp)
	}
	seeds := []*searchState{s.newState(singles)}

	// Greedy Algorithm 1 result under the same non-auto options.
	gopts := s.opts
	gopts.Auto = false
	gopts.AutoOpts = nil
	greedy, err := buildGroups(s.gi, gopts)
	if err != nil {
		// The greedy heuristic can fail on pipelines the search handles
		// (or vice versa); it is only a seed, not a requirement.
		return seeds, nil
	}
	var asIs, retiled []*Group
	retileOK := true
	for _, grp := range greedy.Groups {
		c, cerr := s.evalCost(grp)
		if cerr != nil {
			asIs = nil
			retileOK = false
			break
		}
		grp.Cost = &c
		asIs = append(asIs, grp)
		if len(grp.Members) > 1 {
			memberSet := make(map[string]bool, len(grp.Members))
			for _, m := range grp.Members {
				memberSet[m] = true
			}
			rt := s.bestMergedGroup(memberSet, grp.Anchor)
			if rt == nil {
				retileOK = false
				continue
			}
			retiled = append(retiled, rt)
		} else {
			retiled = append(retiled, grp)
		}
	}
	if asIs != nil {
		seeds = append(seeds, s.newState(asIs))
		if retileOK {
			seeds = append(seeds, s.newState(retiled))
		}
	}
	return seeds, nil
}

// expand generates every legal single-merge successor of a state: each
// group with exactly one child group, both sides mergeable, merged with
// that child under the model's best tile choice.
func (s *searcher) expand(st *searchState) []*searchState {
	// Deterministic candidate order: groups sorted by anchor.
	groups := append([]*Group(nil), st.groups...)
	sort.Slice(groups, func(i, j int) bool { return groups[i].Anchor < groups[j].Anchor })
	var out []*searchState
	for _, grp := range groups {
		if s.stats.States >= maxSearchStates {
			break
		}
		children := childGroups(s.g, st.byName, grp)
		if len(children) != 1 {
			continue
		}
		child := children[0]
		if !mergeableGroup(s.gi, grp, s.opts, true) || !mergeableGroup(s.gi, child, s.opts, false) {
			continue
		}
		memberSet := make(map[string]bool, len(grp.Members)+len(child.Members))
		for _, m := range grp.Members {
			memberSet[m] = true
		}
		for _, m := range child.Members {
			memberSet[m] = true
		}
		merged := s.bestMergedGroup(memberSet, child.Anchor)
		if merged == nil {
			continue // no legal aligned+tiled fusion of this pair
		}
		ng := make([]*Group, 0, len(st.groups)-1)
		for _, o := range st.groups {
			if o.ID != grp.ID && o.ID != child.ID {
				ng = append(ng, o)
			}
		}
		ng = append(ng, merged)
		out = append(out, s.newState(ng))
	}
	return out
}

// bestMergedGroup aligns/scales the member set against the anchor and
// picks the model-cheapest legal tile-size candidate. Returns nil when no
// legal fused+tiled schedule of the member set exists (alignment failure,
// unaligned dimension too wide, nothing to tile). Deterministic: strict
// argmin, earlier candidate wins ties.
func (s *searcher) bestMergedGroup(memberSet map[string]bool, anchor string) *Group {
	scales, err := computeScales(s.gi, memberSet, anchor)
	if err != nil {
		return nil
	}
	members := sortedMembers(s.g, memberSet)
	as := s.gi.domain(anchor)
	if as.err != nil {
		return nil
	}
	anchorBox := as.box
	var best *Group
	var bestCost float64
	for _, cand := range s.ao.TileCandidates {
		if s.stats.States >= maxSearchStates && best != nil {
			break
		}
		topts := s.opts
		topts.TileSizes = cand
		ts := effectiveTileSizes(anchorBox, topts)
		tiled := false
		for _, t := range ts {
			if t > 0 {
				tiled = true
			}
		}
		if !tiled {
			continue
		}
		trial := &Group{ID: s.nextID, Members: members, Anchor: anchor, Scales: scales, Tiled: true, TileSizes: ts}
		if !s.priceCandidate(trial) {
			continue
		}
		if t := s.w.Total(*trial.Cost); best == nil || t < bestCost {
			best, bestCost = trial, t
		}
	}
	if best != nil {
		best.ID = s.nextID
		s.nextID++
	}
	return best
}

// singletonGroup builds the untiled one-stage group finalizeGroups would
// produce, with its cost evaluated.
func (s *searcher) singletonGroup(name string, id int) (*Group, error) {
	st := s.g.Stages[name]
	ds := make([]DimScale, st.Decl.NumDims())
	for d := range ds {
		ds[d] = DimScale{AnchorDim: d, Scale: oneRat()}
	}
	grp := &Group{
		ID:        id,
		Members:   []string{name},
		Anchor:    name,
		Scales:    map[string][]DimScale{name: ds},
		TileSizes: make([]int64, st.Decl.NumDims()),
	}
	c, err := s.evalCost(grp)
	if err != nil {
		return nil, fmt.Errorf("schedule: cost of stage %s: %w", name, err)
	}
	grp.Cost = &c
	return grp, nil
}

// evalCost prices one group from scratch and counts it as a state.
func (s *searcher) evalCost(grp *Group) (GroupCost, error) {
	tp, err := newTilePlan(s.gi, grp)
	if err != nil {
		return GroupCost{}, err
	}
	return s.evalPlan(tp)
}

// evalPlan prices a planned group, counting the evaluation and how it
// enumerated the group's tiles.
func (s *searcher) evalPlan(tp *TilePlan) (GroupCost, error) {
	c, walk, err := evalGroupCost(tp, s.ao, true)
	if err != nil {
		return c, err
	}
	s.stats.States++
	s.stats.AxisProbes += walk.probes
	switch {
	case !c.Exact: // extrapolated from an interior tile
	case walk.perDim:
		s.stats.PerDimEvals++
	default:
		s.stats.EnumeratedEvals++
	}
	return c, nil
}

// priceCandidate checks and prices a merged, tiled candidate, filling in
// its OverlapRatio and Cost; false means the candidate is not a legal
// fusion.
func (s *searcher) priceCandidate(trial *Group) bool {
	tp, err := newTilePlan(s.gi, trial)
	if err != nil {
		return false
	}
	// estimateOverlap doubles as the legality check Algorithm 1 relies on:
	// it rejects over-wide unaligned dimensions and degenerate (NaN/Inf)
	// overlaps. Its threshold is not applied here — the model prices the
	// overlap instead.
	ratios, err := estimateOverlap(tp, s.opts)
	if err != nil {
		return false
	}
	c, err := s.evalPlan(tp)
	if err != nil {
		return false
	}
	trial.OverlapRatio, trial.Cost = ratios, &c
	return true
}

// newState assembles a state from its groups: total cost and name index.
func (s *searcher) newState(groups []*Group) *searchState {
	st := &searchState{groups: groups, byName: make(map[string]*Group, len(s.g.Order))}
	for _, grp := range groups {
		for _, m := range grp.Members {
			st.byName[m] = grp
		}
		if grp.Cost != nil {
			st.total += s.w.Total(*grp.Cost)
		}
	}
	return st
}
