package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/affine"
	"repro/internal/expr"
	"repro/internal/schedule"
)

// Ahead-of-time generated kernels (the paper's "hand the loop nest to the
// optimizing compiler" tier). cmd/polymage-gen emits one Go source package
// per pipeline binding: a straight-line loop nest per stage piece with the
// schedule's concrete offsets, strides and weights baked in, compiled by
// the Go toolchain ahead of time. Each package registers itself here under
// a schedule hash (graph + parameter binding + grouping/tile plan + element
// type + ABI version); engine.Compile looks the hash up at lowering and
// binds matching kernels to the pieces they cover. The registry is a pure
// accelerator: a miss, ExecOptions.NoGenKernels, or a piece no kernel
// covers (irregular accesses, predicated pieces, accumulators,
// self-referencing stages) runs on the row VM / specialized kernels exactly
// as before.

// genABI versions the generated-kernel calling convention and hash layout.
// It is folded into every schedule hash, so kernels emitted by an older
// emitter can never bind to a program lowered by a newer engine. Version 2:
// pieces that are weighted sums of products mirror the row VM's arithmetic
// (version 1 packages mirrored a float64 combination kernel for them).
const genABI = "polymage-genabi/2"

// GenCtx is the context a generated kernel receives: the region to
// compute, the output buffer, and the input buffers of the kernel's
// declared reads, in declaration order. The engine reuses one GenCtx per
// worker, so kernels must not retain it (or its slices) across calls.
type GenCtx struct {
	// Region is the box to compute (already intersected with the piece's
	// case box and the tile's required region).
	Region affine.Box
	// Out is the buffer to write (a full live-out buffer or a tile-local
	// scratchpad; indexing is via Out.Box/Out.Stride either way).
	Out *Buffer
	// Bufs holds the buffers of the kernel's Reads, in the same order.
	Bufs []*Buffer
}

// GenKernel is one generated kernel: the stage piece it implements and the
// compiled loop nest.
type GenKernel struct {
	// Stage and Piece identify the lowered stage piece (Piece indexes the
	// stage's cases in declaration order).
	Stage string
	Piece int
	// Rank is the stage domain's rank the kernel was generated for.
	Rank int
	// Reads lists the stages/images the kernel loads from, in GenCtx.Bufs
	// order.
	Reads []string
	// F32 reports that the kernel computes in float32 (it passed the same
	// magnitude gate as the row VM's float32 instruction set); otherwise it
	// computes in float64 and narrows on store.
	F32 bool
	// Fn is the compiled loop nest.
	Fn func(*GenCtx)
}

// GenPackage is the registration unit of one generated package: every
// kernel emitted for one pipeline binding, keyed by its schedule hash.
type GenPackage struct {
	// Hash is the schedule hash the emitting program reported
	// (Program.ScheduleHash); lowering binds the package only to programs
	// with the identical hash.
	Hash string
	// Name labels the package in diagnostics ("harris", "seed42").
	Name string
	// Kernels lists the generated kernels.
	Kernels []GenKernel
}

var (
	genMu       sync.RWMutex
	genRegistry = map[string]*GenPackage{}
)

// RegisterGenKernels adds a generated package to the process-wide kernel
// registry. Generated packages call it from init; registering a hash twice
// keeps the later package (so a regenerated package shadows a stale one
// linked into the same binary).
func RegisterGenKernels(p *GenPackage) {
	genMu.Lock()
	defer genMu.Unlock()
	genRegistry[p.Hash] = p
}

// LookupGenKernels returns the registered package for a schedule hash, or
// nil.
func LookupGenKernels(hash string) *GenPackage {
	genMu.RLock()
	defer genMu.RUnlock()
	return genRegistry[hash]
}

// GenRegistrySize reports how many generated packages the process has
// registered (observability and tests).
func GenRegistrySize() int {
	genMu.RLock()
	defer genMu.RUnlock()
	return len(genRegistry)
}

func genRegistryEmpty() bool {
	genMu.RLock()
	defer genMu.RUnlock()
	return len(genRegistry) == 0
}

// genBound is a kernel bound to a piece of this program: the function plus
// the slot of each read, resolved against the program's slot table.
type genBound struct {
	fn    func(*GenCtx)
	slots []int
}

// attachGenKernels binds registered generated kernels to this program's
// pieces when a package matches the schedule hash. Validation is
// defensive: a kernel naming an unknown stage/piece/read, a rank mismatch,
// or a predicated piece is skipped (that piece keeps its interpreted
// tier), never an error — the registry accelerates, it cannot widen
// behavior.
func (p *Program) attachGenKernels() {
	if genRegistryEmpty() {
		return
	}
	gp := LookupGenKernels(p.ScheduleHash())
	if gp == nil {
		return
	}
	for i := range gp.Kernels {
		k := &gp.Kernels[i]
		ls := p.stages[k.Stage]
		if ls == nil || ls.isAcc || ls.selfRef || k.Piece < 0 || k.Piece >= len(ls.pieces) {
			continue
		}
		if ls.elem != ElemF32 {
			// Generated kernels store float32; narrow stages keep their
			// interpreted tiers (the hash's elem lines make this unreachable
			// for honestly-emitted packages — defense in depth).
			continue
		}
		if k.Rank != len(ls.dom) || k.Fn == nil {
			continue
		}
		piece := &ls.pieces[k.Piece]
		if piece.pred != nil {
			continue
		}
		slots := make([]int, len(k.Reads))
		ok := true
		for j, r := range k.Reads {
			s, exists := p.slots[r]
			if !exists || p.slotElem[s] != ElemF32 {
				ok = false
				break
			}
			slots[j] = s
		}
		if !ok {
			continue
		}
		piece.gen = &genBound{fn: k.Fn, slots: slots}
	}
}

// genLoop dispatches a piece to its bound generated kernel: resolve the
// kernel's reads against the worker's current slot bindings and run the
// compiled loop nest over the region. The GenCtx and Bufs slice live on
// the worker, so the steady state allocates nothing.
func (p *Program) genLoop(w *worker, piece *loweredPiece, r affine.Box, out *Buffer) {
	gb := piece.gen
	if cap(w.genBufs) < len(gb.slots) {
		w.genBufs = make([]*Buffer, len(gb.slots))
	}
	bufs := w.genBufs[:len(gb.slots)]
	for i, s := range gb.slots {
		bufs[i] = w.ctx.bufs[s]
	}
	w.genCtx.Region = r
	w.genCtx.Out = out
	w.genCtx.Bufs = bufs
	gb.fn(&w.genCtx)
}

// ScheduleHash returns the generated-kernel cache key of this program: a
// SHA-256 over the pipeline graph (stages, domains, expressions, outputs),
// the concrete parameter binding, the grouping with its tile sizes, the
// tiling strategy, the element type and the generated-kernel ABI version.
// Two programs share a hash exactly when the same generated package is
// correct for both.
func (p *Program) ScheduleHash() string {
	p.hashOnce.Do(func() {
		p.schedHash = computeScheduleHash(p.Grouping, p.Params, p.Opts.Tiling, p.narrowElems())
	})
	return p.schedHash
}

// narrowElems lists the narrow-typed slots as sorted "name=elem" lines for
// the schedule hash. All-float32 programs return nil, keeping their hash
// byte-identical to pre-narrow-types engines (checked-in generated packages
// stay bound).
func (p *Program) narrowElems() []string {
	var lines []string
	for name, slot := range p.slots {
		if e := p.slotElem[slot]; e != ElemF32 {
			lines = append(lines, name+"="+e.String())
		}
	}
	sort.Strings(lines)
	return lines
}

func computeScheduleHash(gr *schedule.Grouping, params map[string]int64, tiling TilingStrategy, narrow []string) string {
	h := sha256.New()
	fmt.Fprintf(h, "abi=%s\nstore=float32\ntiling=%d\n", genABI, tiling)
	for _, l := range narrow {
		fmt.Fprintf(h, "elem %s\n", l)
	}
	names := make([]string, 0, len(params))
	for n := range params {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "param %s=%d\n", n, params[n])
	}
	g := gr.Graph
	imgs := sortedImageNames(g)
	for _, n := range imgs {
		fmt.Fprintf(h, "image %s dom=%s\n", n, domainString(g.Images[n].Domain()))
	}
	for _, n := range g.Order {
		st := g.Stages[n]
		fmt.Fprintf(h, "stage %s dom=%s selfref=%v\n", n, domainString(st.Decl.Domain()), st.SelfRef)
		if st.IsAccumulator() {
			red := ""
			if rd, ok := st.Decl.(interface{ ReductionDomain() affine.Domain }); ok {
				red = domainString(rd.ReductionDomain())
			}
			fmt.Fprintf(h, "  acc op=%v red=%s val=%s\n", st.AccOp, red, st.AccValue)
			for _, t := range st.AccTarget {
				fmt.Fprintf(h, "  acctarget %s\n", t)
			}
			continue
		}
		for _, c := range st.Cases {
			cond := "-"
			if c.Cond != nil {
				cond = c.Cond.String()
			}
			fmt.Fprintf(h, "  case cond=%s expr=%s\n", cond, c.E)
		}
	}
	fmt.Fprintf(h, "outputs %v\n", g.LiveOuts)
	for _, grp := range gr.Groups {
		fmt.Fprintf(h, "group anchor=%s members=%v tiled=%v tiles=%v\n",
			grp.Anchor, grp.Members, grp.Tiled, grp.TileSizes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// domainString renders a (possibly parametric) domain deterministically
// for hashing: one lo..hi pair per dimension via affine.Expr.String.
func domainString(d affine.Domain) string {
	var b strings.Builder
	for i, iv := range d {
		if i > 0 {
			b.WriteByte('x')
		}
		fmt.Fprintf(&b, "[%s..%s]", iv.Lo, iv.Hi)
	}
	return b.String()
}

// GenUnit describes one stage piece the emitter can generate a kernel for:
// a plain (non-accumulator, non-self-referencing) stage piece with no
// residual predicate whose accesses are all regular — every index argument
// affine in its own dimension's loop variable alone. Irregular pieces
// (data-dependent gathers, diagonal accesses, predicated cases) are
// excluded by construction and always execute on the interpreted tiers.
type GenUnit struct {
	Stage string
	Piece int
	// Rank is the stage domain's rank (1–3 supported).
	Rank int
	// Expr is the piece's defining expression.
	Expr expr.Expr
	// Reads lists accessed stages/images in first-use order; it becomes
	// the kernel's GenCtx.Bufs layout.
	Reads []string
	// F32 reports that the evaluator this piece would otherwise run on
	// computes in float32 (the stencil kernel's low-mass path or the row
	// VM's float32 instruction set): the generated kernel must compute in
	// float32 too, or its results would not match the tier it replaces.
	F32 bool
	// Tier names the evaluator the piece runs on without a generated
	// kernel ("stencil", "rowvm", "scalar") — emitter diagnostics and
	// policy.
	Tier string
	// Sten carries the engine's matched stencil plan when Tier is
	// "stencil". The emitter must reproduce its arithmetic exactly
	// (pre-folded float32 weights, left-to-right accumulation), not the
	// source expression's tree shape, so that a generated kernel is a
	// bit-identical substitute for the tier it displaces.
	Sten *GenSten
}

// GenSten is the emitter-facing form of the engine's specialized stencil
// kernel: factor · Σ w_t · target(x0+off_t0, …) over one producer.
type GenSten struct {
	// Target is the single producer stage/image.
	Target string
	// Factor and Weights are the peeled constant factor and per-tap
	// weights.
	Factor  float64
	Weights []float64
	// Offsets holds per tap the constant index offset in each dimension.
	Offsets [][]int64
	// F32 selects the float32 accumulation path (weighted mass ≤ 4); the
	// effective per-tap weight is then float32(Factor·Weights[t]).
	F32 bool
}

// GenUnits enumerates the pieces of this program eligible for ahead-of-time
// kernel generation, in deterministic (stage topological, piece
// declaration) order. The emitter in internal/codegen renders one kernel
// per unit; pieces not enumerated here fall back to the interpreted tiers
// at run time.
func (p *Program) GenUnits() []GenUnit {
	slotName := make(map[int]string, len(p.slots))
	for n, s := range p.slots {
		slotName[s] = n
	}
	var units []GenUnit
	for _, name := range p.stageNames {
		ls := p.stages[name]
		if ls.isAcc || ls.selfRef || ls.elem != ElemF32 {
			continue
		}
		rank := len(ls.dom)
		if rank < 1 || rank > 3 {
			continue
		}
		for pi := range ls.pieces {
			piece := &ls.pieces[pi]
			if piece.pred != nil || piece.src == nil {
				continue
			}
			reads, ok := genAnalyze(piece.src, p.slots, p.Params)
			if !ok {
				continue
			}
			narrowRead := false
			for _, r := range reads {
				if p.slotElem[p.slots[r]] != ElemF32 {
					narrowRead = true
					break
				}
			}
			if narrowRead {
				continue
			}
			u := GenUnit{
				Stage: name, Piece: pi, Rank: rank,
				Expr: piece.src, Reads: reads, Tier: "scalar",
			}
			switch {
			case piece.sten != nil:
				k := piece.sten
				u.Tier = "stencil"
				u.F32 = k.f32
				u.Sten = &GenSten{
					Target:  slotName[k.slot],
					Factor:  k.factor,
					Weights: append([]float64(nil), k.weights...),
					Offsets: k.offsets,
					F32:     k.f32,
				}
			case piece.vm != nil:
				u.Tier = "rowvm"
				u.F32 = piece.vm.f32
			}
			units = append(units, u)
		}
	}
	return units
}

// genAnalyze checks that every access in e is regular — each index
// argument is quasi-affine in its own dimension's variable (or constant),
// with a parameter-affine offset evaluable under the binding — and returns
// the accessed targets in first-use order. Data-dependent gathers
// (hist(I(x,y))), diagonal accesses (f(x, x)) and cross-dimension indices
// fail the check: those stay on the row VM, which handles them via
// per-subtree fallback.
func genAnalyze(e expr.Expr, slots map[string]int, params map[string]int64) ([]string, bool) {
	var reads []string
	seen := map[string]bool{}
	ok := true
	expr.Walk(e, func(x expr.Expr) bool {
		a, isAcc := x.(expr.Access)
		if !isAcc || !ok {
			return ok
		}
		if _, exists := slots[a.Target]; !exists {
			ok = false
			return false
		}
		for d, arg := range a.Args {
			aff, affOK := expr.ToAffineAccess(arg)
			if !affOK || (aff.Var != d && aff.Var != -1) || aff.Div < 1 {
				ok = false
				return false
			}
			if _, err := aff.Off.Eval(params); err != nil {
				ok = false
				return false
			}
		}
		if !seen[a.Target] {
			seen[a.Target] = true
			reads = append(reads, a.Target)
		}
		return true
	})
	if !ok {
		return nil, false
	}
	return reads, true
}
