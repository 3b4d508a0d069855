package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"repro/internal/affine"
	"repro/internal/dsl"
	"repro/internal/expr"
	"repro/internal/obs"
)

// Ahead-of-time generated kernels (the paper's "hand the loop nest to the
// optimizing compiler" tier). cmd/polymage-gen emits one Go function per
// distinct stage-piece shape: a straight-line loop nest with the piece's
// folded constants and access offsets baked in, compiled by the Go
// toolchain ahead of time. Everything tile-shaped arrives at run
// time (GenCtx.Region, the buffers' boxes and strides), so a kernel depends
// only on the piece it computes and is registered here under a content key
// of exactly what the emitter bakes in (GenUnit.Key). Lowering computes the
// key of each eligible piece and binds on a hit, whatever the schedule,
// stage names or image size. The registry is a pure accelerator: a miss,
// ExecOptions.NoGenKernels, or an ineligible piece (predicated pieces,
// self-referencing stages, stages of rank above 3, and under Debug gathers
// and accumulators) runs on the row VM or the scalar loop exactly as before.

// genABI versions the generated-kernel calling convention and key layout.
// It is folded into every key, so kernels emitted by an older emitter can
// never bind to a piece lowered by a newer engine. Version 5: a kernel is a
// printing of the row VM's program for the piece, keyed by its register type
// (version 4 re-derived the body from the expression, keyed by tier).
// Version 6: exp is numeric.Exp, its common path printed inline (version 5
// called math.Exp).
const genABI = "polymage-genabi/6"

// GenCtx is the context a generated kernel receives: the region to
// compute, the output buffer, and the input buffers of the kernel's
// reads, in first-use order. The engine reuses one GenCtx per worker, so
// kernels must not retain it (or its slices) across calls.
type GenCtx struct {
	// Region is the box to compute (already intersected with the piece's
	// case box and the tile's required region).
	Region affine.Box
	// Out is the buffer to write (a full live-out buffer or a tile-local
	// scratchpad; indexing is via Out.Box/Out.Stride either way).
	Out *Buffer
	// Bufs holds the buffers the piece reads, in GenUnit.Reads order.
	Bufs []*Buffer
}

// GenKernel is one generated kernel: the content key of the piece shape it
// computes (GenUnit.Key) and the compiled loop nest.
type GenKernel struct {
	Key string
	Fn  func(*GenCtx)
}

var (
	genMu       sync.RWMutex
	genRegistry = map[string]func(*GenCtx){}
)

// RegisterGenKernels adds generated kernels to the process-wide registry.
// Generated packages call it from init; registering a key twice keeps the
// later kernel (so a regenerated package shadows a stale one linked into
// the same binary). Entries without a function are ignored.
func RegisterGenKernels(ks []GenKernel) {
	genMu.Lock()
	defer genMu.Unlock()
	for _, k := range ks {
		if k.Fn != nil {
			genRegistry[k.Key] = k.Fn
		}
	}
}

// genBound is a kernel bound to a piece of this program: the function plus
// the slot of each read, resolved against the program's slot table.
type genBound struct {
	fn    func(*GenCtx)
	slots []int
}

// attachGenKernels binds a registered kernel to every eligible piece whose
// key it was emitted for, and records why each other piece stays on the
// interpreted tiers (Stats().GenMisses).
func (p *Program) attachGenKernels() {
	units, miss := p.genUnits()
	genMu.RLock()
	defer genMu.RUnlock()
	for _, u := range units {
		fn := genRegistry[u.Key]
		if fn == nil {
			miss.NoKernel++
			continue
		}
		slots := make([]int, len(u.Reads))
		for i, r := range u.Reads {
			slots[i] = p.slots[r]
		}
		gb := &genBound{fn: fn, slots: slots}
		if ls := p.stages[u.Stage]; u.Targets != nil {
			ls.accGen = gb
		} else {
			ls.pieces[u.Piece].gen = gb
		}
	}
	p.genMiss = miss
}

// genLoop runs a bound generated kernel: resolve the kernel's reads against
// the worker's current slot bindings and run the compiled loop nest over the
// region. The GenCtx and Bufs slice live on the worker, so the steady state
// allocates nothing.
func (p *Program) genLoop(w *worker, gb *genBound, r affine.Box, out *Buffer) {
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

// GenUnit describes one stage piece the emitter can generate a kernel for: a
// stage piece of rank 1–3 with no residual predicate, of any storage element
// type, or an accumulator swept by rows (not under Debug); never a
// self-referencing stage. Stage, Piece and Reads locate the piece in this
// program; the remaining fields are the piece's shape — all the emitter may
// read, and exactly what Key hashes.
type GenUnit struct {
	Stage string
	Piece int
	// Reads lists accessed stages/images in first-use order; it becomes
	// the kernel's GenCtx.Bufs layout.
	Reads []string
	// Key is the content key a kernel for this shape registers under: a
	// SHA-256 over genABI, Rank, the register type, Out, Elems and Expr (and
	// for an accumulator a marker, Op and Targets), which together determine
	// the program the emitter prints.
	// Nothing about stage names, grouping, tile sizes, domains or the rest
	// of the graph enters it, because none of that reaches the emitted code.
	Key string
	// Rank is the stage domain's rank, or an accumulator's reduction
	// domain's (1–3 supported).
	Rank int
	// Out and Elems are the storage element types of the output and of each
	// read, in Reads order: the typed slice a kernel stores to and loads
	// from (all ElemF32 unless ExecOptions.NarrowTypes narrowed a slot).
	Out   Elem
	Elems []Elem
	// Expr is the piece's defining expression in canonical form: bound
	// parameters folded (expr.FoldParams), read targets renamed to their
	// GenCtx.Bufs position ("b0", "b1", …), every quasi-affine index
	// argument rebuilt from its resolved affine form (over whichever loop
	// variable it uses), data-dependent index arguments kept as canonical
	// expressions of their own, variable names dropped.
	Expr expr.Expr
	// Targets, for an accumulator, are its target indices in Expr's
	// canonical form and Op its reduction; Expr is then its update value.
	// Both are nil and zero for any other piece.
	Targets []expr.Expr
	Op      dsl.ReduceOp
	// prog is Expr lowered by the row VM's builder with read position i as
	// buffer slot i, res its result value and set the register type it runs
	// over — the piece's own: the program EmitGo prints. An accumulator's
	// program computes its targets too, lowered first: tres are their values
	// (lowerAcc).
	prog *vmBuilder
	res  int
	set  vmSet
	tres []int
}

// Set names the register type the unit's kernel computes in, the one the
// row VM runs the piece over: "float64", "float32" or "int64".
func (u GenUnit) Set() string { return u.set.String() }

// Phases is the number of phase loops the unit's kernel runs its inner loop
// as (EmitGo), 1 for the plain loop.
func (u GenUnit) Phases() int { return int(newKernelPrinter(&goPrinter{}, u).d) }

// Carried is the number of values the unit's kernel carries from one
// iteration of its plain inner loop to the next (gencarry.go), 0 for none.
func (u GenUnit) Carried() int { return newKernelPrinter(&goPrinter{}, u).carry.carried() }

// Lanes is the number of adjacent elements one iteration of the unit's
// kernel computes (EmitGo): 4 for a plain loop with a strided read, 1
// otherwise.
func (u GenUnit) Lanes() int { return newKernelPrinter(&goPrinter{}, u).lanes }

// lower lowers u.Expr with the row VM's builder, read position i as buffer
// slot i, and picks the register type as compileRowVM does for want.
func (u *GenUnit) lower(want vmSet) error {
	slots := make(map[string]int, len(u.Elems))
	for i := range u.Elems {
		slots["b"+strconv.Itoa(i)] = i
	}
	cp := &compiler{slots: slots}
	if u.Targets != nil {
		vb, tres, res, err := cp.lowerAcc(u.Targets, u.Expr, u.Rank-1)
		if err != nil {
			return err
		}
		u.prog, u.tres, u.res, u.set = vb, tres, res, setF64
		return nil
	}
	vb, res, err := cp.lowerRow(u.Expr, u.Rank-1)
	if err != nil {
		return err
	}
	u.prog, u.res, u.set = vb, res, vb.pickSet(res, want)
	return nil
}

// GenUnits enumerates the pieces of this program eligible for ahead-of-time
// kernel generation, in deterministic (stage topological, piece
// declaration) order. EmitGo renders one kernel per distinct key; pieces
// not enumerated here run on the interpreted tiers. Only a Fast program has
// row programs, so only a Fast program has units.
func (p *Program) GenUnits() []GenUnit {
	units, _ := p.genUnits()
	return units
}

// genUnits is the one walk behind GenUnits and attachGenKernels: the
// eligible pieces with their keys, and a count per reason of the pieces
// that are not eligible.
func (p *Program) genUnits() ([]GenUnit, obs.GenMisses) {
	var units []GenUnit
	var miss obs.GenMisses
	var kb []byte // key material, reused across pieces
	unit := func(u GenUnit, want vmSet) {
		for i, r := range u.Reads {
			u.Elems[i] = p.slotElem[p.slots[r]]
		}
		// The canonical expression lowers to the piece's own program up to
		// slot numbers.
		if err := u.lower(want); err != nil || u.set != want {
			miss.Irregular++
			return
		}
		kb = fmt.Appendf(kb[:0], "%s ", genABI)
		if u.Targets != nil {
			kb = fmt.Appendf(kb, "acc=%s outrank=%d ", u.Op, len(u.Targets))
		}
		kb = fmt.Appendf(kb, "rank=%d set=%s out=%s reads=", u.Rank, u.set, u.Out)
		for _, el := range u.Elems {
			kb = fmt.Appendf(kb, "%s,", el)
		}
		kb = append(kb, '\n')
		for _, t := range u.Targets {
			kb = appendExprKey(kb, t)
		}
		kb = appendExprKey(kb, u.Expr)
		sum := sha256.Sum256(kb)
		u.Key = hex.EncodeToString(sum[:])
		units = append(units, u)
	}
	for _, name := range p.stageNames {
		ls := p.stages[name]
		rank := len(ls.dom)
		switch {
		case ls.selfRef:
			miss.SelfRef += max(len(ls.pieces), 1)
			continue
		case ls.isAcc:
			p.accUnit(name, ls, &miss, unit)
			continue
		case rank < 1 || rank > 3:
			miss.Irregular += len(ls.pieces)
			continue
		}
		for pi := range ls.pieces {
			piece := &ls.pieces[pi]
			switch {
			case piece.pred != nil:
				miss.Predicated++
				continue
			case piece.vm == nil:
				continue
			}
			canon, reads, gather, ok := genCanon([]expr.Expr{piece.src}, p.slots, p.Params)
			if !ok || (gather && p.Opts.Debug) {
				// Under Debug a gather keeps the per-dimension region
				// check, which only the interpreted tiers carry.
				miss.Irregular++
				continue
			}
			unit(GenUnit{Stage: name, Piece: pi, Reads: reads, Rank: rank, Expr: canon[0],
				Out: ls.elem, Elems: make([]Elem, len(reads))}, piece.vm.set)
		}
	}
	return units, miss
}

// accUnit hands an accumulator swept by rows (a Fast program's) to unit,
// or counts why it is not eligible. Under Debug the sweep keeps its
// out-of-box panic, which only the interpreted tiers carry.
func (p *Program) accUnit(name string, ls *loweredStage, miss *obs.GenMisses, unit func(GenUnit, vmSet)) {
	if ls.accValVM == nil {
		return
	}
	st := p.Graph.Stages[name]
	n := len(st.AccTarget)
	canon, reads, _, ok := genCanon(append(slices.Clone(st.AccTarget), st.AccValue), p.slots, p.Params)
	if rank := len(ls.redDom); !ok || p.Opts.Debug || rank < 1 || rank > 3 {
		miss.Irregular++
		return
	}
	for d := range n {
		// A quasi-affine target in the smallest form that lowers to it.
		if aff, affOK := expr.ToAffineAccess(canon[d]); affOK {
			off, err := aff.Off.Eval(p.Params)
			if err != nil || aff.Div < 1 {
				miss.Irregular++
				return
			}
			canon[d] = canonIndex(aff, off)
		}
	}
	unit(GenUnit{Stage: name, Reads: reads, Rank: len(ls.redDom), Expr: canon[n], Targets: canon[:n],
		Op: ls.accOp, Out: ls.elem, Elems: make([]Elem, len(reads))}, setF64)
}

// genCanon brings piece expressions into the canonical form GenUnit.Expr
// documents and returns the targets they access in first-use order, and
// whether some index argument is data-dependent (a gather: hist(I(x,y))).
// Index arguments may be quasi-affine in any one loop variable — their own
// dimension's, another's (blend(c,x,y) reading mask(x,y)) or the same one
// twice (f(x, x)) — or arbitrary expressions, canonicalised recursively. It
// fails only on an unknown target or an affine offset the binding cannot
// evaluate.
func genCanon(es []expr.Expr, slots map[string]int, params map[string]int64) (canon []expr.Expr, reads []string, gather, ok bool) {
	pos := map[string]int{}
	ok = true
	f := func(x expr.Expr) expr.Expr {
		switch n := x.(type) {
		case expr.VarRef:
			return expr.VarRef{Dim: n.Dim}
		case expr.Access:
			if _, exists := slots[n.Target]; !exists {
				ok = false
				return nil
			}
			// Transform is bottom-up: n.Args are canonical already.
			args := make([]expr.Expr, len(n.Args))
			for d, arg := range n.Args {
				aff, affOK := expr.ToAffineAccess(arg)
				if !affOK {
					// A value like any other (FoldParams leaves index
					// arguments alone because affine ones are not values).
					args[d] = expr.FoldParams(arg, params)
					gather = true
					continue
				}
				off, err := aff.Off.Eval(params)
				if err != nil || aff.Div < 1 {
					ok = false
					return nil
				}
				args[d] = canonIndex(aff, off)
			}
			i, seen := pos[n.Target]
			if !seen {
				i = len(reads)
				pos[n.Target] = i
				reads = append(reads, n.Target)
			}
			return expr.Access{Target: "b" + strconv.Itoa(i), Args: args}
		}
		return nil
	}
	for _, e := range es {
		canon = append(canon, expr.Transform(expr.FoldParams(e, params), f))
	}
	return canon, reads, gather, ok
}

// canonIndex rebuilds floor((Coeff·x_Var + off) / Div) as the smallest
// index expression expr.ToAffineAccess maps back to the same access.
func canonIndex(a affine.Access, off int64) expr.Expr {
	if a.Var < 0 {
		return expr.C(float64(affine.FloorDiv(off, a.Div)))
	}
	var e expr.Expr = expr.VarRef{Dim: a.Var}
	if a.Coeff != 1 {
		e = expr.MulE(expr.C(float64(a.Coeff)), e)
	}
	if off != 0 {
		e = expr.AddE(e, expr.C(float64(off)))
	}
	if a.Div != 1 {
		e = expr.Binary{Op: expr.FDiv, L: e, R: expr.C(float64(a.Div))}
	}
	return e
}

// appendExprKey serializes a canonical expression injectively (prefix form,
// operators by number, constants as shortest round-trip decimals).
// Expr.String is not usable as key material: it prints Div and FDiv alike.
// Nor is an expr.Numbering: its numbers mean nothing outside the process
// that assigned them, and a key must match the kernel emitted by another.
func appendExprKey(b []byte, e expr.Expr) []byte {
	switch n := e.(type) {
	case expr.Const:
		return append(strconv.AppendFloat(append(b, 'c'), n.V, 'g', -1, 64), ' ')
	case expr.VarRef:
		return append(strconv.AppendInt(append(b, 'x'), int64(n.Dim), 10), ' ')
	case expr.Access:
		b = append(strconv.AppendInt(append(append(b, n.Target...), '['), int64(len(n.Args)), 10), ' ')
		for _, a := range n.Args {
			b = appendExprKey(b, a)
		}
		return b
	case expr.Binary:
		b = append(strconv.AppendInt(append(b, 'b'), int64(n.Op), 10), ' ')
		return appendExprKey(appendExprKey(b, n.L), n.R)
	case expr.Unary:
		b = append(strconv.AppendInt(append(b, 'u'), int64(n.Op), 10), ' ')
		return appendExprKey(b, n.X)
	case expr.Select:
		b = appendCondKey(append(b, 's', ' '), n.Cond)
		return appendExprKey(appendExprKey(b, n.Then), n.Else)
	case expr.Cast:
		b = append(strconv.AppendInt(append(b, 't'), int64(n.To), 10), ' ')
		return appendExprKey(b, n.X)
	}
	// Compile rejects unbound parameters, so FoldParams leaves none.
	panic(fmt.Sprintf("engine: no generated-kernel key form for %T", e))
}

func appendCondKey(b []byte, c expr.Cond) []byte {
	switch n := c.(type) {
	case expr.BoolConst:
		return append(strconv.AppendBool(append(b, 'k'), n.V), ' ')
	case expr.Cmp:
		b = append(strconv.AppendInt(append(b, 'm'), int64(n.Op), 10), ' ')
		return appendExprKey(appendExprKey(b, n.L), n.R)
	case expr.And:
		return appendCondKey(appendCondKey(append(b, 'a', ' '), n.A), n.B)
	case expr.Or:
		return appendCondKey(appendCondKey(append(b, 'o', ' '), n.A), n.B)
	case expr.Not:
		return appendCondKey(append(b, 'n', ' '), n.A)
	}
	panic(fmt.Sprintf("engine: no generated-kernel key form for %T", c))
}
