package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
// of exactly what the emitter bakes in (GenUnit.Key). Lowering brings each
// piece into canonical form and lowers that once (lowerCanon): the row VM
// runs the program with the piece's slots, and a kernel is the same program
// printed with read positions. A Fast bind hashes the key of each eligible
// piece from its canonical form and register type, lowering nothing more,
// and binds on a hit, whatever the schedule, stage names or image size. The
// registry is a pure accelerator: a miss, a program compiled without
// ExecOptions.Fast, or an ineligible piece (predicated pieces,
// self-referencing stages, stages of rank above 3, and under Debug gathers
// and accumulators) runs the same program on the row VM.

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
// key it was emitted for, and records why each other piece stays on the row
// VM (Stats().GenMisses).
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
	// prog is the piece's one lowering, Expr lowered by the row VM's builder
	// with read position i as buffer slot i (lowerCanon): the program EmitGo
	// prints, and the row VM runs bound to the piece's slots. res is its
	// result value and set the register type the row VM runs it over. An
	// accumulator's program computes its targets too, lowered first: tres
	// are their values (lowerAcc). gather reports a data-dependent index
	// argument (genCanon).
	prog   *vmBuilder
	res    int
	set    vmSet
	tres   []int
	gather bool
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

// GenUnits enumerates the pieces of this program eligible for ahead-of-time
// kernel generation, in deterministic (stage topological, piece
// declaration) order. EmitGo renders one kernel per distinct key; pieces
// not enumerated here run on the row VM. Only a Fast program binds the
// kernels, but every program has the units.
func (p *Program) GenUnits() []GenUnit {
	units, _ := p.genUnits()
	return units
}

// genUnits is the one walk behind GenUnits and attachGenKernels: the
// eligible pieces with their keys, and a count per reason of the pieces
// that are not eligible. It lowers nothing: a unit is the piece's own
// lowering (lowerCanon).
func (p *Program) genUnits() ([]GenUnit, obs.GenMisses) {
	var units []GenUnit
	var miss obs.GenMisses
	var kb []byte // key material, reused across pieces
	unit := func(u GenUnit) {
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
			// Under Debug the row sweep keeps its out-of-box panic, which
			// only the row VM carries.
			if rank := len(ls.redDom); p.Opts.Debug || rank < 1 || rank > 3 {
				miss.Irregular++
			} else {
				unit(ls.acc)
			}
			continue
		case rank < 1 || rank > 3:
			miss.Irregular += len(ls.pieces)
			continue
		}
		for pi := range ls.pieces {
			switch piece := &ls.pieces[pi]; {
			case piece.pred != nil:
				miss.Predicated++
			case piece.unit.gather && p.Opts.Debug:
				// Under Debug a gather keeps the per-dimension region
				// check, which only the row VM carries.
				miss.Irregular++
			default:
				unit(piece.unit)
			}
		}
	}
	return units, miss
}

// lowerCanon lowers a piece or an accumulator once. It brings es into
// canonical form (genCanon) and lowers that with read position i as slot i:
// for a piece es is its expression alone (guarded: a predicated piece's
// Select), for an accumulator (nt > 0) its nt targets, each quasi-affine one
// in the smallest form that lowers to it, then its value. u names the piece:
// stage, piece, rank, output and reduction. lowerCanon returns it completed
// as the unit of that program, and the program bound to the piece's slots
// for the row VM, over register type want if the program passes its gate.
func (p *Program) lowerCanon(u GenUnit, es []expr.Expr, nt int, guarded bool, want vmSet) (GenUnit, *rowVM, error) {
	canon, reads, gather, err := genCanon(es, p.slots, p.Params)
	if err != nil {
		return u, nil, err
	}
	u.Reads, u.Expr, u.gather = reads, canon[nt], gather
	u.Elems = make([]Elem, len(reads))
	pos := make(map[string]int, len(reads))
	for i, r := range reads {
		u.Elems[i] = p.slotElem[p.slots[r]]
		pos["b"+strconv.Itoa(i)] = i
	}
	cp := &compiler{slots: pos, params: p.Params, debug: p.Opts.Debug}
	if nt == 0 {
		u.prog, u.res, err = cp.lowerRow(u.Expr, u.Rank-1, guarded)
	} else {
		u.Targets = canon[:nt]
		for d, t := range u.Targets {
			if aff, ok := expr.ToAffineAccess(t); ok {
				off, offErr := aff.Off.Eval(p.Params)
				if offErr != nil {
					return u, nil, offErr
				}
				u.Targets[d] = canonIndex(aff, off)
			}
		}
		u.prog, u.tres, u.res, err = cp.lowerAcc(u.Targets, u.Expr, u.Rank-1)
	}
	if err != nil {
		return u, nil, err
	}
	// The unit keeps the program; what only lowering reads is let go.
	u.prog.cp, u.prog.num, u.prog.memo, u.prog.idxMemo, u.prog.consts = nil, nil, nil, nil, nil
	vm := u.prog.finish(u.res, u.tres, want, reads, p.slots)
	u.set = vm.set
	return u, vm, nil
}

// genCanon brings piece expressions into the canonical form GenUnit.Expr
// documents and returns the targets they access in first-use order, and
// whether some index argument is data-dependent (a gather: hist(I(x,y))).
// Index arguments may be quasi-affine in any one loop variable — their own
// dimension's, another's (blend(c,x,y) reading mask(x,y)) or the same one
// twice (f(x, x)) — or arbitrary expressions, canonicalised recursively. It
// fails only on an unknown target or an affine offset the binding cannot
// evaluate.
func genCanon(es []expr.Expr, slots map[string]int, params map[string]int64) (canon []expr.Expr, reads []string, gather bool, err error) {
	pos := map[string]int{}
	f := func(x expr.Expr) expr.Expr {
		switch n := x.(type) {
		case expr.VarRef:
			return expr.VarRef{Dim: n.Dim}
		case expr.Access:
			if _, exists := slots[n.Target]; !exists {
				err = errorString("engine: no buffer slot for " + n.Target)
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
				off, offErr := aff.Off.Eval(params)
				if offErr != nil {
					err = offErr
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
	return canon, reads, gather, err
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
