package schedule

import (
	"fmt"
	"runtime"
	"sort"
	"strings"

	"repro/internal/pipeline"
)

// This file is the auto-scheduler's search (Options.Auto): a deterministic
// beam search over grouping candidates × per-group tile sizes, scored by
// the analytical model in cost.go, with branch-and-bound pruning on a
// sound lower bound. It replaces Algorithm 1's single OverlapThreshold
// cut: instead of merging whenever an interior tile's overlap fraction is
// below one knob, every candidate merge is priced (memory traffic saved vs
// halo recompute and footprint added, parallelism lost) and the cheapest
// partition wins. It runs once per compile, on the graph the inline pass
// left (internal/core): inlining is a front-end decision, as in the paper.

// AutoOptions tunes the cost-model search. The zero value means "use the
// defaults" field by field.
type AutoOptions struct {
	// BeamWidth is the number of partition states kept per search round.
	BeamWidth int
	// TileCandidates are the per-group tile-size vectors the search
	// chooses between (assigned to anchor dimensions like
	// Options.TileSizes: outermost first, last entry repeating). The
	// deterministic argmin under the model picks one per merged group.
	TileCandidates [][]int64
	// FleetWidth is the worker count the parallelism term assumes;
	// 0 uses runtime.GOMAXPROCS (the engine fleet's own default).
	FleetWidth int
	// MaxStates caps the number of candidates priced per search (memo hits
	// included); the search stops expanding (keeping the best partition
	// found) beyond it. Some searches reach it: pyramid's at scale 4
	// prices 512 candidates, so raising or lowering it changes its
	// schedule.
	MaxStates int
}

// DefaultAutoOptions returns the search defaults.
func DefaultAutoOptions() AutoOptions {
	return AutoOptions{
		BeamWidth: 4,
		TileCandidates: [][]int64{
			{32, 256}, {64, 64}, {128, 128}, {32, 32}, {16, 16}, {8, 8},
		},
		FleetWidth: runtime.GOMAXPROCS(0),
		MaxStates:  512,
	}
}

func (ao AutoOptions) withDefaults() AutoOptions {
	d := DefaultAutoOptions()
	if ao.BeamWidth <= 0 {
		ao.BeamWidth = d.BeamWidth
	}
	if len(ao.TileCandidates) == 0 {
		ao.TileCandidates = d.TileCandidates
	}
	if ao.FleetWidth <= 0 {
		ao.FleetWidth = d.FleetWidth
	}
	if ao.MaxStates <= 0 {
		ao.MaxStates = d.MaxStates
	}
	return ao
}

// SearchStats counts the search's effort.
type SearchStats struct {
	// States is the number of candidates priced — a candidate whose price
	// came from the search's memo counts like one evaluated, so MaxStates
	// cuts the search at the same point either way.
	States int
	// Expanded is the number of partition states whose merges were tried.
	Expanded int
	// Pruned is the number of states cut by the branch-and-bound lower
	// bound without expansion.
	Pruned int
	// CostEvals is the number of cost-model evaluations actually performed
	// and CostCacheHits the number of candidates priced from the memo
	// instead: beam neighbours reach the same (members, tile sizes)
	// candidate by different merge orders. States = CostEvals +
	// CostCacheHits.
	CostEvals     int
	CostCacheHits int
	// PerDimEvals and EnumeratedEvals split the exact evaluations
	// (GroupCost.Exact) by how they enumerated the group's tiles: from a
	// per-dimension table probed on one axis cross, or tile by tile because
	// the group failed the separability check (cost.go perDimSums). The
	// rest of CostEvals extrapolated from one interior tile.
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
	sig    string  // canonical partition+tiling signature (dedup key)
}

// lowerBound is a sound optimistic bound on the cost of any state
// reachable from s by further merges: merging never decreases the
// compute, recompute or footprint terms, can delete at most each group's
// ReducibleTraffic from the traffic term, and can at best zero the
// parallel-idle term. Proof sketch: a merged group still evaluates at
// least every point each constituent evaluated (halos only grow), still
// writes every pipeline live-out and still reads every input image.
func (s *searchState) lowerBound(w CostWeights) float64 {
	lb := s.total
	for _, grp := range s.groups {
		if grp.Cost != nil {
			lb -= w.Traffic*grp.Cost.ReducibleTraffic + w.Parallel*grp.Cost.ParallelIdle
		}
	}
	return lb
}

// searcher holds the per-search context.
type searcher struct {
	g     *pipeline.Graph
	est   map[string]int64
	opts  Options
	ao    AutoOptions
	w     CostWeights
	stats SearchStats
	// gi holds the access tables and domains every candidate's tile plan
	// reads; memo the price of every merged candidate seen so far.
	gi   *graphInfo
	memo map[string]candidatePrice
	// nextID hands out group IDs above every seed ID so IDs stay unique
	// within any state.
	nextID int
}

// SearchGroups is the Options.Auto entry point: it replaces Algorithm 1's
// greedy threshold merge with the cost-model beam search. The result is a
// valid Grouping exactly like BuildGroups produces, with Searched,
// ModelCost, Search and per-group Cost populated.
func SearchGroups(g *pipeline.Graph, est map[string]int64, opts Options) (*Grouping, error) {
	opts = opts.withDefaults()
	var ao AutoOptions
	if opts.AutoOpts != nil {
		ao = *opts.AutoOpts
	}
	ao = ao.withDefaults()
	s := &searcher{
		g: g, est: est, opts: opts, ao: ao, w: DefaultCostWeights(),
		gi: newGraphInfo(g, est), memo: make(map[string]candidatePrice),
		nextID: len(g.Order) + 1,
	}

	seeds, err := s.seedStates()
	if err != nil {
		return nil, err
	}
	best := seeds[0]
	for _, st := range seeds {
		if st.total < best.total {
			best = st
		}
	}

	frontier := truncateFrontier(seeds, ao.BeamWidth)
	// Each round merges one more pair somewhere; a partition of N stages
	// supports at most N-1 merges.
	for round := 0; round < len(g.Order) && len(frontier) > 0; round++ {
		var next []*searchState
		for _, st := range frontier {
			if st.lowerBound(s.w) >= best.total {
				s.stats.Pruned++
				continue
			}
			if s.stats.States >= ao.MaxStates {
				break
			}
			s.stats.Expanded++
			exp, err := s.expand(st)
			if err != nil {
				return nil, err
			}
			next = append(next, exp...)
		}
		if len(next) == 0 {
			break
		}
		for _, st := range next {
			if st.total < best.total {
				best = st
			}
		}
		frontier = truncateFrontier(next, ao.BeamWidth)
	}

	gr := &Grouping{
		Groups:    best.groups,
		ByName:    make(map[string]*Group, len(g.Order)),
		Graph:     g,
		Est:       est,
		Searched:  true,
		ModelCost: best.total,
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
	return dedupStates(seeds), nil
}

// expand generates every legal single-merge successor of a state: each
// group with exactly one child group, both sides mergeable, merged with
// that child under the model's best tile choice.
func (s *searcher) expand(st *searchState) ([]*searchState, error) {
	// Deterministic candidate order: groups sorted by anchor.
	groups := append([]*Group(nil), st.groups...)
	sort.Slice(groups, func(i, j int) bool { return groups[i].Anchor < groups[j].Anchor })
	var out []*searchState
	for _, grp := range groups {
		if s.stats.States >= s.ao.MaxStates {
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
	return out, nil
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
		if s.stats.States >= s.ao.MaxStates && best != nil {
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
		p := s.priceCandidate(trial)
		if !p.ok {
			continue
		}
		trial.OverlapRatio = p.ratios
		c := p.cost
		trial.Cost = &c
		if t := s.w.Total(c); best == nil || t < bestCost {
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
	s.stats.CostEvals++
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

// candidatePrice is the memoised outcome of pricing one merged candidate:
// its legality (ok), overlap ratios and cost.
type candidatePrice struct {
	ok     bool
	ratios []float64
	cost   GroupCost
}

// priceCandidate checks and prices a merged, tiled candidate, once per
// search: the outcome is a function of the anchor, the member set and the
// tile sizes (scales follow from the first two), which is the memo's key. A
// legal candidate counts as a state whether its price was computed or
// remembered.
func (s *searcher) priceCandidate(trial *Group) candidatePrice {
	key := fmt.Sprintf("%s|%s|%v", trial.Anchor, strings.Join(trial.Members, ","), trial.TileSizes)
	if p, hit := s.memo[key]; hit {
		if p.ok {
			s.stats.States++
			s.stats.CostCacheHits++
		}
		return p
	}
	var p candidatePrice
	if tp, err := newTilePlan(s.gi, trial); err == nil {
		// estimateOverlap doubles as the legality check Algorithm 1 relies
		// on: it rejects over-wide unaligned dimensions and degenerate
		// (NaN/Inf) overlaps. Its threshold is not applied here — the
		// model prices the overlap instead.
		if p.ratios, err = estimateOverlap(tp, s.opts); err == nil {
			p.cost, err = s.evalPlan(tp)
			p.ok = err == nil
		}
	}
	s.memo[key] = p
	return p
}

// newState assembles a state from its groups: total cost, name index and
// canonical signature.
func (s *searcher) newState(groups []*Group) *searchState {
	st := &searchState{groups: groups, byName: make(map[string]*Group, len(s.g.Order))}
	parts := make([]string, 0, len(groups))
	for _, grp := range groups {
		for _, m := range grp.Members {
			st.byName[m] = grp
		}
		if grp.Cost != nil {
			st.total += s.w.Total(*grp.Cost)
		}
		parts = append(parts, fmt.Sprintf("%s[%s|%v]", grp.Anchor, strings.Join(grp.Members, ","), grp.TileSizes))
	}
	sort.Strings(parts)
	st.sig = strings.Join(parts, ";")
	return st
}

// truncateFrontier dedups by signature, sorts by (cost, signature) and
// keeps the beam's width.
func truncateFrontier(states []*searchState, width int) []*searchState {
	states = dedupStates(states)
	sort.Slice(states, func(i, j int) bool {
		if states[i].total != states[j].total {
			return states[i].total < states[j].total
		}
		return states[i].sig < states[j].sig
	})
	if len(states) > width {
		states = states[:width]
	}
	return states
}

func dedupStates(states []*searchState) []*searchState {
	seen := make(map[string]bool, len(states))
	out := states[:0]
	for _, st := range states {
		if seen[st.sig] {
			continue
		}
		seen[st.sig] = true
		out = append(out, st)
	}
	return out
}
