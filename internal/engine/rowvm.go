package engine

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"unsafe"

	"repro/internal/affine"
	"repro/internal/expr"
	"repro/internal/numeric"
)

// The row VM lowers an expression to array-at-a-time evaluation: each
// instruction produces a whole row (the innermost, unit-stride dimension)
// per dispatch, so the per-element cost is a tight slice loop instead of an
// expression tree walk. This is the engine's stand-in for the SIMD
// vectorization the paper obtains from icc on the generated branch-free
// inner loops (DESIGN.md substitution note 3): like SIMD it only pays off
// on unit-stride regular loops, which is why tiling+vec composes the way
// Figure 10 shows.
//
// A stage piece compiles to a flat, register-allocated bytecode program: the
// expression DAG is linearized (with value numbering, so repeated subtrees
// compute once per row) into three-address row instructions over a small
// file of reused row buffers, a peephole pass fuses adjacent ops into
// superinstructions (mulAdd, axpy, shifted-load-accumulate for stencil
// taps, clampSel, const folding), and one switch-dispatch loop per row
// executes the program (evalRow, generic over the register type: float64,
// float32 or int64, see vmSet), so a deep tree runs in 3-6 live rows and a
// fused stencil tap is one instruction instead of a load row, a scale row
// and an add row. Indirect addressing has a row form too: an access with a
// data-dependent index argument (hist(I(x,y)), a trilinear grid tap), or with
// several arguments varying along the row, compiles to a gather instruction
// whose index arguments are ordinary value-numbered rows, so an index shared
// by many taps is computed once per row. Every expression form has a row
// instruction (TestRowVMCoversIR), so lowering is total over the IR.

// RowCtx carries the evaluation state for one row.
type RowCtx struct {
	// pt is the current point (the row's outer coordinates; pt[last] is
	// scratch), bufs the buffer bound to each slot: full buffers for
	// live-outs and inputs, the worker's scratchpads for in-tile
	// intermediates.
	pt   []int64
	bufs []*Buffer
	n    int   // row length
	last int   // innermost dimension index
	jLo  int64 // first coordinate of the row along the innermost dim

	// Register file for rowVM execution (persists across rows, tiles and
	// runs).
	vm vmRegs
}

type errorString string

func (e errorString) Error() string { return string(e) }

// noRowForm is the lowering error for a node with no row instruction. The
// expression IR is sealed and every kind, operator and condition has one,
// so only a new IR form without a lowering here reaches it.
func noRowForm(n fmt.Stringer) error {
	return errorString("engine: no row instruction for " + n.String())
}

// compiler lowers expressions against a slot table mapping target names to
// buffer slots. Parameters are bound at compile time.
type compiler struct {
	slots  map[string]int
	params map[string]int64
	// debug makes every load and gather check its indices against the
	// bound buffer's box (ExecOptions.Debug).
	debug bool
	// elems is the storage element type per slot (nil or all-ElemF32 unless
	// the program narrowed some slots).
	elems []Elem
}

// readsNarrow reports whether any access in e targets a narrow-typed slot.
func (cp *compiler) readsNarrow(e expr.Expr) bool {
	found := false
	expr.Walk(e, func(x expr.Expr) bool {
		if a, ok := x.(expr.Access); ok {
			if slot, ok := cp.slots[a.Target]; ok && slot < len(cp.elems) && cp.elems[slot] != ElemF32 {
				found = true
			}
		}
		return !found
	})
	return found
}

// panicOutOfRegion is Debug's per-dimension access check failing: index x
// of dimension d lies outside the buffer bound to target.
func panicOutOfRegion(target string, d int, x int64, b *Buffer, pt []int64) {
	panic(fmt.Sprintf("engine: out-of-region read of %s dim %d at %d (region %v, point %v)",
		target, d, x, b.Box, pt))
}

// rop is a row-VM opcode. Opcodes prefixed b produce bool rows (masks) in
// the separate bool register file.
type rop uint8

const (
	rNop rop = iota
	// Sources.
	rConst // dst[i] = imm
	rIota  // dst[i] = jLo + i (the innermost loop variable)
	rVarB  // dst[i] = pt[aux] (outer loop variable, row-invariant)
	// Loads; aux indexes rowVM.loads. The kind is fixed at compile time
	// from the affine form of the innermost-varying argument.
	rLoadU   // unit step: coeff 1, div 1
	rLoadS   // strided: coeff != 1, div 1
	rLoadDiv // divided: floor((coeff*j+off)/div) gather
	rLoadB   // row-invariant access: broadcast one element
	// Indirect addressing; aux indexes rowVM.idxs / rowVM.gathers.
	rIdx    // dst[i] = floor((coeff*x+off)/div), a quasi-affine index as an exact float row
	rGather // dst[i] = buf[args...] with per-element index rows (see vmGather)
	// Fused loads (peephole superinstructions over unit loads).
	rLoadMulI // dst[i] = imm * load[i]           (first stencil tap)
	rMadLoad  // dst[i] = a[i] + imm * load[i]    (stencil tap accumulate)
	// Binary, register-register.
	rAdd
	rSub
	rMul
	rDiv
	rMod
	rMin
	rMax
	rPow
	rFDiv
	// Binary with a folded constant operand.
	rAddI  // dst = a + imm (also a - c, folded as a + (-c))
	rISub  // dst = imm - a
	rMulI  // dst = a * imm
	rDivI  // dst = a / imm (kept as a true division: bit-identical results)
	rIDiv  // dst = imm / a
	rMinI  // dst = min(a, imm)
	rMaxI  // dst = max(a, imm)
	rPowI  // dst = pow(a, imm)
	rModI  // dst = mod(a, imm)
	rFDivI // dst = floor(a / imm)
	// Unary.
	rNeg
	rAbs
	rSqrt
	rExp
	rLog
	rSin
	rCos
	rFloor
	rCeil
	// Fused arithmetic.
	rMulAdd // dst = a*b + m, the product rounded before the add (no FMA)
	rAxpy   // dst = imm*a + b, likewise
	rClampI // dst = min(max(a, imm), imm2)
	// Other.
	rCast   // dst = ApplyCast(Type(aux), a)
	rSelect // dst[i] = bool[m][i] ? a[i] : b[i]
	// Bool-producing ops; dst (and a/b for bAnd/bOr/bNot) index the bool
	// register file. aux carries the expr.CmpOp for comparisons.
	bConst // dst[i] = (imm != 0)
	bCmp   // dst[i] = a[i] <aux> b[i]
	bCmpI  // dst[i] = a[i] <aux> imm
	bAnd
	bOr
	bNot
)

// vmLoad describes one affine access: everything but the per-row base
// offset is resolved at compile time.
type vmLoad struct {
	slot   int
	target string
	debug  bool
	nd     int
	varDim int // producer dim whose index varies along the row; -1 = none
	affs   []affine.Access
	offs   []int64
}

// rowBase resolves the buffer and the offset contribution of the
// row-invariant dimensions for the current row.
func (l *vmLoad) rowBase(c *RowCtx) (*Buffer, int64) {
	b := c.bufs[l.slot]
	if l.debug {
		l.check(c, b)
	}
	var base int64
	for d := 0; d < l.nd; d++ {
		if d == l.varDim {
			continue
		}
		aff := l.affs[d]
		var x int64
		if aff.Var < 0 {
			x = affine.FloorDiv(l.offs[d], aff.Div)
		} else {
			x = affine.FloorDiv(aff.Coeff*c.pt[aff.Var]+l.offs[d], aff.Div)
		}
		base += (x - b.Box[d].Lo) * b.Stride[d]
	}
	return b, base
}

// check is Debug's region check of one load over the current row: each
// row-invariant index, and the varying index at both ends of the row (a
// floor-affine index is monotone along it, so its ends bound it).
func (l *vmLoad) check(c *RowCtx, b *Buffer) {
	for d := 0; d < l.nd; d++ {
		aff := l.affs[d]
		for _, j := range [2]int64{c.jLo, c.jLo + int64(c.n) - 1} {
			x := l.offs[d]
			if d == l.varDim {
				x += aff.Coeff * j
			} else if aff.Var >= 0 {
				x += aff.Coeff * c.pt[aff.Var]
			}
			if x = affine.FloorDiv(x, aff.Div); x < b.Box[d].Lo || x > b.Box[d].Hi {
				c.pt[c.last] = j
				panicOutOfRegion(l.target, d, x, b, c.pt)
			}
		}
	}
}

// vmIdx is one quasi-affine index argument in row form: the integer
// floor((Coeff·x_Var + off) / Div) the reference computes per point, as a
// float64 row (exact: indices are far below 2^53). Over any variable but the
// row's the row is a broadcast.
type vmIdx struct {
	aff affine.Access
	off int64
}

// row fills t with the index along the current row. Divided forms step the
// quotient and remainder instead of dividing per element.
func (ix *vmIdx) row(c *RowCtx, t []float64) {
	a := ix.aff
	if a.Var != c.last {
		x := ix.off
		if a.Var >= 0 {
			x += a.Coeff * c.pt[a.Var]
		}
		v := float64(affine.FloorDiv(x, a.Div))
		for i := range t {
			t[i] = v
		}
		return
	}
	num := a.Coeff*c.jLo + ix.off
	if a.Div == 1 {
		for i := range t {
			t[i] = float64(num)
			num += a.Coeff
		}
		return
	}
	q := affine.FloorDiv(num, a.Div)
	r := num - q*a.Div // 0 <= r < Div
	dq := affine.FloorDiv(a.Coeff, a.Div)
	dr := a.Coeff - dq*a.Div // 0 <= dr < Div
	for i := range t {
		t[i] = float64(q)
		q += dq
		if r += dr; r >= a.Div {
			q++
			r -= a.Div
		}
	}
}

// vmGather describes one access with no single-step row form: some index
// argument is data-dependent, or several vary along the row. regs[d] >= 0
// names the float register holding dimension d's index row, converted with
// the same int64(v) as the reference; regs[d] < 0 marks a row-invariant affine
// argument resolved from affs/offs like vmLoad.rowBase. The element load is
// a Go-bounds-checked flat offset, plus the per-dimension region check under
// Debug.
// clamp marks a read in a predicated piece's predicate, which runs over the
// whole box, also where a guard in it keeps the reference from reading: each
// index is clamped into the box instead (an empty or unbound one reads 0).
type vmGather struct {
	slot   int
	target string
	debug  bool
	clamp  bool
	regs   []int
	affs   []affine.Access
	offs   []int64
}

func (g *vmGather) outOfRegion(c *RowCtx, b *Buffer, d int, x int64, i int) {
	c.pt[c.last] = c.jLo + int64(i)
	panicOutOfRegion(g.target, d, x, b, c.pt)
}

// run gathers one row into t. The flat offsets are accumulated a dimension
// at a time in the worker's offset row, so t may alias an index register.
func (g *vmGather) run(c *RowCtx, regs [][]float64, t []float64) {
	b := c.bufs[g.slot]
	if g.clamp && (b == nil || b.Box.Empty()) {
		fill(t, 0)
		return
	}
	var base int64
	for d, r := range g.regs {
		if r >= 0 {
			continue
		}
		aff := g.affs[d]
		x := g.offs[d]
		if aff.Var >= 0 {
			x += aff.Coeff * c.pt[aff.Var]
		}
		x = affine.FloorDiv(x, aff.Div)
		if g.clamp {
			x = min(max(x, b.Box[d].Lo), b.Box[d].Hi)
		} else if g.debug && (x < b.Box[d].Lo || x > b.Box[d].Hi) {
			g.outOfRegion(c, b, d, x, 0)
		}
		base += (x - b.Box[d].Lo) * b.Stride[d]
	}
	offs := c.vm.offsRow(len(t))
	fill(offs, base)
	for d, r := range g.regs {
		if r < 0 {
			continue
		}
		idx := regs[r][:len(offs)]
		lo, hi, stride := b.Box[d].Lo, b.Box[d].Hi, b.Stride[d]
		if g.clamp {
			for i, v := range idx {
				offs[i] += (min(max(int64(v), lo), hi) - lo) * stride
			}
			continue
		}
		if g.debug {
			for i, v := range idx {
				if x := int64(v); x < lo || x > hi {
					g.outOfRegion(c, b, d, x, i)
				}
			}
		}
		for i, v := range idx {
			offs[i] += (int64(v) - lo) * stride
		}
	}
	gatherRow(t, b, offs)
}

// rinstr is one encoded three-address row instruction. a/b are value
// register operands (bool registers for the bool-logic ops), m is the bool
// operand of rSelect and the third value operand of rMulAdd. The immediates
// convert to the register type where they are used.
type rinstr struct {
	op   rop
	dst  uint16
	a, b uint16
	m    uint16
	aux  int32
	imm  float64
	imm2 float64
}

// rowVM is a compiled row program for one stage piece.
type rowVM struct {
	instrs  []rinstr
	loads   []vmLoad
	idxs    []vmIdx
	gathers []vmGather
	nRegs   int    // value row registers (liveness high-water mark)
	nBool   int    // bool row registers
	res     uint16 // register holding the finished row
	fused   int    // superinstructions emitted by the peephole pass
	set     vmSet  // register type the program executes over
}

// vmSet names the register type a row program executes over; lowering
// picks it once per piece (compileRowVM's want, confirmed by the program's
// gate). float32 needs vmFloat32OK and a stage that neither stores nor reads
// a narrow type. int64 needs vmIntOK and a stage bitwidth inference proved
// integral within ±2^24 (loweredStage.intExact, which implies narrow
// storage): there int64 and float64 evaluation are bit-identical after the
// narrowing store. Every other program runs on float64.
type vmSet uint8

const (
	setF64 vmSet = iota
	setF32
	setInt
)

// String names the set by its register type.
func (s vmSet) String() string { return [...]string{"float64", "float32", "int64"}[s] }

// vmNum is the register type of one instantiation of the row VM.
type vmNum interface{ float32 | float64 | int64 }

// vmRegs is the per-worker register file backing rowVM execution, one row
// set per register type; rows are grown on demand and persist across rows,
// tiles and runs. gauge (shared across an executor's workers) tracks the
// pinned bytes for Executor.Snapshot; nil outside the executor.
type vmRegs struct {
	f64   [][]float64
	f32   [][]float32
	i64   [][]int64
	b     [][]bool
	offs  []int64 // flat-offset row of the gather or divided load in flight
	gauge *atomic.Int64
}

// regFile returns the worker's rows of register type T.
func regFile[T vmNum](vr *vmRegs) *[][]T {
	var f any = &vr.f64
	switch any(T(0)).(type) {
	case float32:
		f = &vr.f32
	case int64:
		f = &vr.i64
	}
	return f.(*[][]T)
}

// growRow returns row if it holds n elements, else a new n-element row,
// adding the growth in bytes to gauge.
func growRow[E any](row []E, n int, gauge *atomic.Int64) []E {
	if len(row) >= n {
		return row
	}
	if gauge != nil {
		gauge.Add(int64(n-len(row)) * int64(unsafe.Sizeof(row[0])))
	}
	return make([]E, n)
}

// growRows grows the first nr rows to n elements each.
func growRows[E any](rows [][]E, nr, n int, gauge *atomic.Int64) [][]E {
	for len(rows) < nr {
		rows = append(rows, nil)
	}
	for i := range rows[:nr] {
		rows[i] = growRow(rows[i], n, gauge)
	}
	return rows
}

func (vr *vmRegs) offsRow(n int) []int64 {
	vr.offs = growRow(vr.offs, n, vr.gauge)
	return vr.offs[:n]
}

// vmValue is one SSA value of the linearized program, before register
// allocation. Operands a/b/m are value ids (-1 = unused); whether an
// operand lives in the float or bool space follows from its own isBool. xs
// holds a gather's index operands, one per producer dimension (-1 = none).
type vmValue struct {
	op     rop
	a, b   int
	m      int
	xs     []int
	aux    int32
	imm    float64
	imm2   float64
	isBool bool
}

// vmBuilder linearizes one piece expression. Subtrees are value-numbered
// by their expr.Numbering number (the k beside each expression below), so
// a repeated subtree computes once per row; a subtree occurring more than
// once is never absorbed into a fused instruction.
type vmBuilder struct {
	cp   *compiler
	last int // innermost dimension index of the stage domain
	// guard numbers a predicated piece's root Select (-1: none). Its
	// condition, emitted before the arms, sets clamp: accesses lower to
	// clamped gathers (vmGather.clamp), which read in-bounds arms unchanged.
	guard   int
	clamp   bool
	vals    []vmValue
	num     *expr.Numbering
	memo    []int          // subtree number -> value id, -1 until emitted
	idxMemo map[idxKey]int // index row -> value id
	consts  map[uint64]int // float bits -> rConst value id
	loads   []vmLoad
	idxs    []vmIdx
	gathers []vmGather
	fused   int
}

// idxKey identifies the index row of a quasi-affine argument.
type idxKey struct {
	v               int
	coeff, off, div int64
}

func newVMBuilder(cp *compiler, last int) *vmBuilder {
	return &vmBuilder{cp: cp, last: last, guard: -1, idxMemo: make(map[idxKey]int), consts: make(map[uint64]int)}
}

// compileRowVM lowers an expression to a row bytecode program. last is the
// innermost dimension index of the stage's domain (its rank - 1); want is
// the register type the stage permits (see vmSet), kept when the program
// passes that type's gate, float64 otherwise. It is total over the
// expression IR: every node lowers to row instructions.
func (cp *compiler) compileRowVM(e expr.Expr, last int, want vmSet) (*rowVM, error) {
	vb, res, err := cp.lowerRow(e, last, false)
	if err != nil {
		return nil, err
	}
	return vb.finish(res, want), nil
}

// lowerRow linearizes e into the builder's SSA values and returns the id of
// the result: the program before register allocation, which finish encodes
// for the VM and EmitGo prints as a generated kernel. guarded marks e as a
// predicated piece's Select(pred, E, own), whose pred reads are clamped.
func (cp *compiler) lowerRow(e expr.Expr, last int, guarded bool) (*vmBuilder, int, error) {
	vb := newVMBuilder(cp, last)
	vb.num = expr.NewNumbering()
	root := vb.num.Expr(e)
	if guarded {
		vb.guard = root
	}
	vb.memo = make([]int, vb.num.Len())
	for i := range vb.memo {
		vb.memo[i] = -1
	}
	res, err := vb.emit(e, root)
	return vb, res, err
}

// lowerAcc linearizes an accumulator's target indices and update value into
// one builder, lowering each as accumulateRows' programs do (compileRowIdx,
// compileRowVM): a quasi-affine target as an index row, any other target and
// the value as value rows. Value numbering spans all of them, so a read both
// a target and the value make is made once. It returns the targets' values
// and the update value's; the targets are lowered first.
func (cp *compiler) lowerAcc(targets []expr.Expr, value expr.Expr, last int) (vb *vmBuilder, tres []int, res int, err error) {
	vb = newVMBuilder(cp, last)
	vb.num = expr.NewNumbering()
	exprs := append(slices.Clone(targets), value)
	affs := make([]*affine.Access, len(exprs))
	ks := make([]int, len(exprs))
	for i, e := range exprs {
		if aff, ok := expr.ToAffineAccess(e); ok && i < len(targets) {
			affs[i] = &aff
			continue
		}
		ks[i] = vb.num.Expr(e)
	}
	vb.memo = make([]int, vb.num.Len())
	for i := range vb.memo {
		vb.memo[i] = -1
	}
	for i, e := range exprs {
		id := 0
		if aff := affs[i]; aff != nil {
			var off int64
			if off, err = aff.Off.Eval(cp.params); err == nil {
				id = vb.emitIdx(*aff, off)
			}
		} else {
			id, err = vb.emit(e, ks[i])
		}
		if err != nil {
			return nil, nil, 0, err
		}
		tres = append(tres, id)
	}
	return vb, tres[:len(targets)], tres[len(targets)], nil
}

// pickSet is the register type the program runs over: want when the
// program passes that type's gate, float64 otherwise.
func (vb *vmBuilder) pickSet(res int, want vmSet) vmSet {
	if want == setF32 && vmFloat32OK(vb.vals, res) || want == setInt && vmIntOK(vb.vals) {
		return want
	}
	return setF64
}

// kid is the number of operand i of the subtree numbered k.
func (vb *vmBuilder) kid(k, i int) int { return vb.num.Operand(k, i) }

// shared reports whether the subtree numbered k occurs more than once.
func (vb *vmBuilder) shared(k int) bool { return vb.num.Uses(k) > 1 }

// compileRowIdx lowers an index expression (an accumulator target) to a row
// program whose float64 result converts to the index with int64(v): the
// integer quasi-affine form where the expression has one, its own value row
// otherwise, so the rows hold exactly the reference's int64(Eval) indices.
func (cp *compiler) compileRowIdx(e expr.Expr, last int) (*rowVM, error) {
	aff, ok := expr.ToAffineAccess(e)
	if !ok {
		return cp.compileRowVM(e, last, setF64)
	}
	off, err := aff.Off.Eval(cp.params)
	if err != nil {
		return nil, err
	}
	vb := newVMBuilder(cp, last)
	return vb.finish(vb.emitIdx(aff, off), setF64), nil
}

func (vb *vmBuilder) push(v vmValue) int {
	vb.vals = append(vb.vals, v)
	return len(vb.vals) - 1
}

// pushConst emits (or reuses) a constant-broadcast value.
func (vb *vmBuilder) pushConst(v float64) int {
	bits := math.Float64bits(v)
	if id, ok := vb.consts[bits]; ok {
		return id
	}
	id := vb.push(vmValue{op: rConst, a: -1, b: -1, m: -1, imm: v})
	vb.consts[bits] = id
	return id
}

// lit reports whether e folds to a compile-time scalar (constants, bound
// parameters, negations thereof).
func (vb *vmBuilder) lit(e expr.Expr) (float64, bool) {
	switch n := e.(type) {
	case expr.Const:
		return n.V, true
	case expr.ParamRef:
		v, ok := vb.cp.params[n.Name]
		return float64(v), ok
	case expr.Unary:
		if n.Op == expr.Neg {
			if v, ok := vb.lit(n.X); ok {
				return -v, true
			}
		}
	}
	return 0, false
}

// emit returns the value of e, the subtree numbered k, emitting it on
// first use.
func (vb *vmBuilder) emit(e expr.Expr, k int) (int, error) {
	if id := vb.memo[k]; id >= 0 {
		return id, nil
	}
	id, err := vb.emitNew(e, k)
	if err != nil {
		return 0, err
	}
	vb.memo[k] = id
	return id, nil
}

func (vb *vmBuilder) emitNew(e expr.Expr, k int) (int, error) {
	if v, ok := vb.lit(e); ok {
		return vb.pushConst(v), nil
	}
	switch n := e.(type) {
	case expr.VarRef:
		if n.Dim < 0 {
			return 0, errorString("engine: unresolved variable " + n.Name)
		}
		if n.Dim == vb.last {
			return vb.push(vmValue{op: rIota, a: -1, b: -1, m: -1}), nil
		}
		return vb.push(vmValue{op: rVarB, a: -1, b: -1, m: -1, aux: int32(n.Dim)}), nil
	case expr.ParamRef:
		// Unbound parameter (lit failed).
		return 0, errorString("engine: unbound parameter " + n.Name)
	case expr.Access:
		return vb.emitAccess(n, k)
	case expr.Binary:
		return vb.emitBinary(n, k)
	case expr.Unary:
		x, err := vb.emit(n.X, vb.kid(k, 0))
		if err != nil {
			return 0, err
		}
		op, ok := unaryOp(n.Op)
		if !ok {
			return 0, noRowForm(e)
		}
		return vb.push(vmValue{op: op, a: x, b: -1, m: -1}), nil
	case expr.Select:
		if bc, ok := n.Cond.(expr.BoolConst); ok {
			if bc.V {
				return vb.emit(n.Then, vb.kid(k, 1))
			}
			return vb.emit(n.Else, vb.kid(k, 2))
		}
		clamp := vb.clamp
		vb.clamp = clamp || k == vb.guard
		m, err := vb.emitCond(n.Cond, vb.kid(k, 0))
		vb.clamp = clamp
		if err != nil {
			return 0, err
		}
		th, err := vb.emit(n.Then, vb.kid(k, 1))
		if err != nil {
			return 0, err
		}
		el, err := vb.emit(n.Else, vb.kid(k, 2))
		if err != nil {
			return 0, err
		}
		return vb.push(vmValue{op: rSelect, a: th, b: el, m: m}), nil
	case expr.Cast:
		x, err := vb.emit(n.X, vb.kid(k, 0))
		if err != nil {
			return 0, err
		}
		return vb.push(vmValue{op: rCast, a: x, b: -1, m: -1, aux: int32(n.To)}), nil
	}
	return 0, noRowForm(e)
}

func unaryOp(op expr.UnOp) (rop, bool) {
	switch op {
	case expr.Neg:
		return rNeg, true
	case expr.Abs:
		return rAbs, true
	case expr.Sqrt:
		return rSqrt, true
	case expr.Exp:
		return rExp, true
	case expr.Log:
		return rLog, true
	case expr.Sin:
		return rSin, true
	case expr.Cos:
		return rCos, true
	case expr.Floor:
		return rFloor, true
	case expr.Ceil:
		return rCeil, true
	}
	return rNop, false
}

// foldBin evaluates a binary op over two compile-time scalars with the same
// semantics as expr.Eval.
func foldBin(op expr.BinOp, a, b float64) float64 {
	switch op {
	case expr.Add:
		return a + b
	case expr.Sub:
		return a - b
	case expr.Mul:
		return a * b
	case expr.Div:
		return a / b
	case expr.Mod:
		return math.Mod(a, b)
	case expr.Min:
		return math.Min(a, b)
	case expr.Max:
		return math.Max(a, b)
	case expr.Pow:
		return math.Pow(a, b)
	case expr.FDiv:
		return math.Floor(a / b)
	}
	return math.NaN()
}

func (vb *vmBuilder) emitBinary(n expr.Binary, k int) (int, error) {
	lk, rk := vb.kid(k, 0), vb.kid(k, 1)
	lv, lok := vb.lit(n.L)
	rv, rok := vb.lit(n.R)
	if lok && rok {
		return vb.pushConst(foldBin(n.Op, lv, rv)), nil
	}
	switch n.Op {
	case expr.Add:
		if id, ok, err := vb.tryMulAdd(n.L, lk, n.R, rk); ok || err != nil {
			return id, err
		}
		if id, ok, err := vb.tryMulAdd(n.R, rk, n.L, lk); ok || err != nil {
			return id, err
		}
		if rok {
			return vb.emitRegImm(rAddI, n.L, lk, rv)
		}
		if lok {
			return vb.emitRegImm(rAddI, n.R, rk, lv)
		}
		return vb.emitRegReg(rAdd, n.L, lk, n.R, rk)
	case expr.Sub:
		if rok {
			// a - c == a + (-c) bit-for-bit in IEEE arithmetic.
			return vb.emitRegImm(rAddI, n.L, lk, -rv)
		}
		if lok {
			return vb.emitRegImm(rISub, n.R, rk, lv)
		}
		return vb.emitRegReg(rSub, n.L, lk, n.R, rk)
	case expr.Mul:
		if rok {
			return vb.emitMulI(n.L, lk, rv)
		}
		if lok {
			return vb.emitMulI(n.R, rk, lv)
		}
		return vb.emitRegReg(rMul, n.L, lk, n.R, rk)
	case expr.Div:
		if rok {
			return vb.emitRegImm(rDivI, n.L, lk, rv)
		}
		if lok {
			return vb.emitRegImm(rIDiv, n.R, rk, lv)
		}
		return vb.emitRegReg(rDiv, n.L, lk, n.R, rk)
	case expr.Mod:
		if rok {
			return vb.emitRegImm(rModI, n.L, lk, rv)
		}
		return vb.emitRegReg(rMod, n.L, lk, n.R, rk)
	case expr.Min:
		if id, ok, err := vb.tryClamp(n, k); ok || err != nil {
			return id, err
		}
		if rok {
			return vb.emitRegImm(rMinI, n.L, lk, rv)
		}
		if lok {
			return vb.emitRegImm(rMinI, n.R, rk, lv)
		}
		return vb.emitRegReg(rMin, n.L, lk, n.R, rk)
	case expr.Max:
		if rok {
			return vb.emitRegImm(rMaxI, n.L, lk, rv)
		}
		if lok {
			return vb.emitRegImm(rMaxI, n.R, rk, lv)
		}
		return vb.emitRegReg(rMax, n.L, lk, n.R, rk)
	case expr.Pow:
		if rok {
			return vb.emitRegImm(rPowI, n.L, lk, rv)
		}
		return vb.emitRegReg(rPow, n.L, lk, n.R, rk)
	case expr.FDiv:
		if rok {
			return vb.emitRegImm(rFDivI, n.L, lk, rv)
		}
		return vb.emitRegReg(rFDiv, n.L, lk, n.R, rk)
	}
	return 0, noRowForm(n)
}

func (vb *vmBuilder) emitRegReg(op rop, l expr.Expr, lk int, r expr.Expr, rk int) (int, error) {
	a, err := vb.emit(l, lk)
	if err != nil {
		return 0, err
	}
	b, err := vb.emit(r, rk)
	if err != nil {
		return 0, err
	}
	return vb.push(vmValue{op: op, a: a, b: b, m: -1}), nil
}

func (vb *vmBuilder) emitRegImm(op rop, x expr.Expr, xk int, imm float64) (int, error) {
	a, err := vb.emit(x, xk)
	if err != nil {
		return 0, err
	}
	return vb.push(vmValue{op: op, a: a, b: -1, m: -1, imm: imm}), nil
}

// emitMulI emits x*imm, fusing a single-use unit load into rLoadMulI (the
// first tap of a weighted stencil sum).
func (vb *vmBuilder) emitMulI(x expr.Expr, xk int, imm float64) (int, error) {
	if li, ok := vb.fuseLoad(x, xk); ok {
		vb.fused++
		return vb.push(vmValue{op: rLoadMulI, a: -1, b: -1, m: -1, aux: int32(li), imm: imm}), nil
	}
	return vb.emitRegImm(rMulI, x, xk, imm)
}

// tryMulAdd fuses mulE + otherE when mulE is a single-use product:
// rMadLoad for weight*load (the stencil-tap accumulate), rAxpy for
// weight*x, rMulAdd for the general a*b + c shape.
func (vb *vmBuilder) tryMulAdd(mulE expr.Expr, mk int, otherE expr.Expr, otherK int) (int, bool, error) {
	m, ok := mulE.(expr.Binary)
	if !ok || m.Op != expr.Mul || vb.shared(mk) {
		return 0, false, nil
	}
	w, wok := vb.lit(m.L)
	x, xk := m.R, vb.kid(mk, 1)
	if !wok {
		w, wok = vb.lit(m.R)
		x, xk = m.L, vb.kid(mk, 0)
	}
	if wok {
		other, err := vb.emit(otherE, otherK)
		if err != nil {
			return 0, true, err
		}
		if li, lok := vb.fuseLoad(x, xk); lok {
			vb.fused++
			return vb.push(vmValue{op: rMadLoad, a: other, b: -1, m: -1, aux: int32(li), imm: w}), true, nil
		}
		xi, err := vb.emit(x, xk)
		if err != nil {
			return 0, true, err
		}
		vb.fused++
		return vb.push(vmValue{op: rAxpy, a: xi, b: other, m: -1, imm: w}), true, nil
	}
	p, err := vb.emit(m.L, vb.kid(mk, 0))
	if err != nil {
		return 0, true, err
	}
	q, err := vb.emit(m.R, vb.kid(mk, 1))
	if err != nil {
		return 0, true, err
	}
	c, err := vb.emit(otherE, otherK)
	if err != nil {
		return 0, true, err
	}
	vb.fused++
	return vb.push(vmValue{op: rMulAdd, a: p, b: q, m: c}), true, nil
}

// tryClamp fuses min(max(x, lo), hi) with literal bounds (lo <= hi) into
// one clamp instruction. The fused loop applies the same max-then-min, so
// results are bit-identical.
func (vb *vmBuilder) tryClamp(n expr.Binary, k int) (int, bool, error) {
	inner, ik, hi, ok := n.L, vb.kid(k, 0), 0.0, false
	if v, lok := vb.lit(n.R); lok {
		hi, ok = v, true
	} else if v, lok := vb.lit(n.L); lok {
		hi, ok, inner, ik = v, true, n.R, vb.kid(k, 1)
	}
	if !ok {
		return 0, false, nil
	}
	mx, isB := inner.(expr.Binary)
	if !isB || mx.Op != expr.Max || vb.shared(ik) {
		return 0, false, nil
	}
	lo, x, xk := 0.0, mx.L, vb.kid(ik, 0)
	if v, lok := vb.lit(mx.R); lok {
		lo = v
	} else if v, lok := vb.lit(mx.L); lok {
		lo, x, xk = v, mx.R, vb.kid(ik, 1)
	} else {
		return 0, false, nil
	}
	if !(lo <= hi) {
		return 0, false, nil
	}
	xi, err := vb.emit(x, xk)
	if err != nil {
		return 0, true, err
	}
	vb.fused++
	return vb.push(vmValue{op: rClampI, a: xi, b: -1, m: -1, imm: lo, imm2: hi}), true, nil
}

// analyzeLoad resolves an access's affine form. It returns (nil, 0, nil)
// when the access has no single-step row form (non-affine argument, or more
// than one argument varying along the row) and the caller should emit a
// gather.
func (vb *vmBuilder) analyzeLoad(a expr.Access) (*vmLoad, rop, error) {
	slot, ok := vb.cp.slots[a.Target]
	if !ok {
		return nil, rNop, errorString("engine: no buffer slot for " + a.Target)
	}
	nd := len(a.Args)
	l := &vmLoad{slot: slot, target: a.Target, debug: vb.cp.debug, nd: nd, varDim: -1,
		affs: make([]affine.Access, nd), offs: make([]int64, nd)}
	for d, arg := range a.Args {
		aff, ok := expr.ToAffineAccess(arg)
		if !ok {
			return nil, rNop, nil
		}
		off, err := aff.Off.Eval(vb.cp.params)
		if err != nil {
			return nil, rNop, err
		}
		l.affs[d] = aff
		l.offs[d] = off
		if aff.Var >= 0 && aff.Var == vb.last {
			if l.varDim >= 0 {
				// Two producer dims varying along one row (diagonal
				// access): no single-step row form.
				return nil, rNop, nil
			}
			l.varDim = d
		}
	}
	if l.varDim < 0 {
		return l, rLoadB, nil
	}
	aff := l.affs[l.varDim]
	switch {
	case aff.Coeff == 1 && aff.Div == 1:
		return l, rLoadU, nil
	case aff.Div == 1:
		return l, rLoadS, nil
	default:
		return l, rLoadDiv, nil
	}
}

func (vb *vmBuilder) emitAccess(a expr.Access, k int) (int, error) {
	if vb.clamp {
		return vb.emitGather(a, k)
	}
	l, op, err := vb.analyzeLoad(a)
	if err != nil {
		return 0, err
	}
	if l == nil {
		return vb.emitGather(a, k)
	}
	vb.loads = append(vb.loads, *l)
	return vb.push(vmValue{op: op, a: -1, b: -1, m: -1, aux: int32(len(vb.loads) - 1)}), nil
}

// emitGather lowers an access analyzeLoad has no load form for. Arguments
// that vary along the row become index rows — rIdx for quasi-affine ones,
// the argument's own value row otherwise — and the rest stay affine in the
// gather's row base.
func (vb *vmBuilder) emitGather(a expr.Access, k int) (int, error) {
	nd := len(a.Args)
	g := vmGather{slot: vb.cp.slots[a.Target], target: a.Target, debug: vb.cp.debug, clamp: vb.clamp,
		regs: make([]int, nd), affs: make([]affine.Access, nd), offs: make([]int64, nd)}
	xs := make([]int, nd)
	for d, arg := range a.Args {
		xs[d] = -1
		aff, ok := expr.ToAffineAccess(arg)
		if !ok {
			id, err := vb.emit(arg, vb.kid(k, d))
			if err != nil {
				return 0, err
			}
			xs[d] = id
			continue
		}
		off, err := aff.Off.Eval(vb.cp.params)
		if err != nil {
			return 0, err
		}
		if aff.Var >= 0 && aff.Var == vb.last {
			xs[d] = vb.emitIdx(aff, off)
			continue
		}
		g.affs[d], g.offs[d] = aff, off
	}
	vb.gathers = append(vb.gathers, g)
	return vb.push(vmValue{op: rGather, a: -1, b: -1, m: -1, xs: xs, aux: int32(len(vb.gathers) - 1)}), nil
}

// emitIdx emits (or reuses) the index row of a quasi-affine argument.
func (vb *vmBuilder) emitIdx(aff affine.Access, off int64) int {
	key := idxKey{aff.Var, aff.Coeff, off, aff.Div}
	if id, ok := vb.idxMemo[key]; ok {
		return id
	}
	vb.idxs = append(vb.idxs, vmIdx{aff: aff, off: off})
	id := vb.push(vmValue{op: rIdx, a: -1, b: -1, m: -1, aux: int32(len(vb.idxs) - 1)})
	vb.idxMemo[key] = id
	return id
}

// fuseLoad returns a load-table index for e when it is a single-use
// unit-step access, letting the caller absorb it into a fused instruction.
func (vb *vmBuilder) fuseLoad(e expr.Expr, k int) (int, bool) {
	a, ok := e.(expr.Access)
	if !ok || vb.shared(k) || vb.clamp {
		return 0, false
	}
	l, op, err := vb.analyzeLoad(a)
	if err != nil || l == nil || op != rLoadU {
		return 0, false
	}
	vb.loads = append(vb.loads, *l)
	return len(vb.loads) - 1, true
}

func flipCmp(op expr.CmpOp) expr.CmpOp {
	switch op {
	case expr.LT:
		return expr.GT
	case expr.LE:
		return expr.GE
	case expr.GT:
		return expr.LT
	case expr.GE:
		return expr.LE
	}
	return op // EQ, NE are symmetric
}

func (vb *vmBuilder) emitCond(c expr.Cond, k int) (int, error) {
	switch n := c.(type) {
	case expr.BoolConst:
		imm := 0.0
		if n.V {
			imm = 1
		}
		return vb.push(vmValue{op: bConst, a: -1, b: -1, m: -1, imm: imm, isBool: true}), nil
	case expr.Cmp:
		lv, lok := vb.lit(n.L)
		rv, rok := vb.lit(n.R)
		if rok {
			a, err := vb.emit(n.L, vb.kid(k, 0))
			if err != nil {
				return 0, err
			}
			return vb.push(vmValue{op: bCmpI, a: a, b: -1, m: -1, aux: int32(n.Op), imm: rv, isBool: true}), nil
		}
		if lok {
			a, err := vb.emit(n.R, vb.kid(k, 1))
			if err != nil {
				return 0, err
			}
			return vb.push(vmValue{op: bCmpI, a: a, b: -1, m: -1, aux: int32(flipCmp(n.Op)), imm: lv, isBool: true}), nil
		}
		a, err := vb.emit(n.L, vb.kid(k, 0))
		if err != nil {
			return 0, err
		}
		b, err := vb.emit(n.R, vb.kid(k, 1))
		if err != nil {
			return 0, err
		}
		return vb.push(vmValue{op: bCmp, a: a, b: b, m: -1, aux: int32(n.Op), isBool: true}), nil
	case expr.And:
		return vb.emitBoolPair(bAnd, n.A, n.B, k)
	case expr.Or:
		return vb.emitBoolPair(bOr, n.A, n.B, k)
	case expr.Not:
		a, err := vb.emitCond(n.A, vb.kid(k, 0))
		if err != nil {
			return 0, err
		}
		return vb.push(vmValue{op: bNot, a: a, b: -1, m: -1, isBool: true}), nil
	}
	return 0, noRowForm(c)
}

// emitBoolPair emits l op r, the operands of the condition numbered k.
func (vb *vmBuilder) emitBoolPair(op rop, l, r expr.Cond, k int) (int, error) {
	a, err := vb.emitCond(l, vb.kid(k, 0))
	if err != nil {
		return 0, err
	}
	b, err := vb.emitCond(r, vb.kid(k, 1))
	if err != nil {
		return 0, err
	}
	return vb.push(vmValue{op: op, a: a, b: b, m: -1, isBool: true}), nil
}

// finish runs liveness-based register allocation over the value list and
// encodes the instruction stream. Registers free as soon as their value's
// last consumer executes — freeing happens before the consumer's own
// destination is assigned, so elementwise ops may compute in place (every
// op reads operand element i before writing destination element i).
func (vb *vmBuilder) finish(res int, want vmSet) *rowVM {
	n := len(vb.vals)
	lastUse := make([]int, n)
	for i := range lastUse {
		lastUse[i] = i
	}
	var ops []int
	for i, v := range vb.vals {
		ops = append(append(ops[:0], v.a, v.b, v.m), v.xs...)
		for _, o := range ops {
			if o >= 0 {
				lastUse[o] = i
			}
		}
	}
	lastUse[res] = n // the result row survives the program

	reg := make([]int, n)
	var freeF, freeB []int
	nF, nB := 0, 0
	for i, v := range vb.vals {
		ops = append(append(ops[:0], v.a, v.b, v.m), v.xs...)
		for k, o := range ops {
			if o < 0 || lastUse[o] != i {
				continue
			}
			// An instruction may name the same value in several operand
			// slots (e.g. rMulAdd fused from x*y+x has a == m); free its
			// register once, not per slot, or a later value would alias a
			// still-live register.
			dup := false
			for _, p := range ops[:k] {
				if p == o {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			if vb.vals[o].isBool {
				freeB = append(freeB, reg[o])
			} else {
				freeF = append(freeF, reg[o])
			}
		}
		if v.isBool {
			if len(freeB) > 0 {
				reg[i] = freeB[len(freeB)-1]
				freeB = freeB[:len(freeB)-1]
			} else {
				reg[i] = nB
				nB++
			}
		} else {
			if len(freeF) > 0 {
				reg[i] = freeF[len(freeF)-1]
				freeF = freeF[:len(freeF)-1]
			} else {
				reg[i] = nF
				nF++
			}
		}
	}

	ins := make([]rinstr, n)
	for i, v := range vb.vals {
		in := rinstr{op: v.op, dst: uint16(reg[i]), aux: v.aux, imm: v.imm, imm2: v.imm2}
		if v.a >= 0 {
			in.a = uint16(reg[v.a])
		}
		if v.b >= 0 {
			in.b = uint16(reg[v.b])
		}
		if v.m >= 0 {
			in.m = uint16(reg[v.m])
		}
		for d, o := range v.xs {
			if o >= 0 {
				vb.gathers[v.aux].regs[d] = reg[o]
			} else {
				vb.gathers[v.aux].regs[d] = -1
			}
		}
		ins[i] = in
	}
	return &rowVM{instrs: ins, loads: vb.loads, idxs: vb.idxs, gathers: vb.gathers,
		nRegs: nF, nBool: nB, res: uint16(reg[res]), fused: vb.fused, set: vb.pickSet(res, want)}
}

// loadRow resolves a unit or strided load's buffer, first flat offset and
// step along the row.
func (l *vmLoad) loadRow(c *RowCtx) (*Buffer, int64, int64) {
	b, base := l.rowBase(c)
	coeff, stride := l.affs[l.varDim].Coeff, b.Stride[l.varDim]
	return b, base + (coeff*c.jLo+l.offs[l.varDim]-b.Box[l.varDim].Lo)*stride, coeff * stride
}

// evalRow is the row VM's dispatch loop: it executes the program for the
// current row (c.n, c.jLo, c.pt) over registers of type T and returns the
// result row. One switch per instruction, each case a tight slice loop over
// the row. A case written here means the same for every register type that
// reaches it (vmIntOK keeps true division and sqrt off int64 registers);
// the opcodes whose meaning depends on the type, and those only float64
// implements, go to typedOp.
func evalRow[T vmNum](vm *rowVM, c *RowCtx) []T {
	n := c.n
	rf := regFile[T](&c.vm)
	*rf = growRows(*rf, vm.nRegs, n, c.vm.gauge)
	regs := *rf
	c.vm.b = growRows(c.vm.b, vm.nBool, n, c.vm.gauge)
	bregs := c.vm.b
	for ii := range vm.instrs {
		in := &vm.instrs[ii]
		switch in.op {
		case rConst:
			fill(regs[in.dst][:n], T(in.imm))
		case rIota:
			t, j := regs[in.dst][:n], c.jLo
			for i := range t {
				t[i] = T(j + int64(i))
			}
		case rVarB:
			fill(regs[in.dst][:n], T(c.pt[in.aux]))
		case rLoadU, rLoadS:
			b, p, step := vm.loads[in.aux].loadRow(c)
			widenRow(regs[in.dst][:n], b, p, step)
		case rLoadDiv:
			l := &vm.loads[in.aux]
			b, base := l.rowBase(c)
			aff, off := l.affs[l.varDim], l.offs[l.varDim]
			lo, stride := b.Box[l.varDim].Lo, b.Stride[l.varDim]
			offs := c.vm.offsRow(n)
			for i := range offs {
				x := affine.FloorDiv(aff.Coeff*(c.jLo+int64(i))+off, aff.Div)
				offs[i] = base + (x-lo)*stride
			}
			gatherRow(regs[in.dst][:n], b, offs)
		case rLoadB:
			b, base := vm.loads[in.aux].rowBase(c)
			fill(regs[in.dst][:n], T(b.LoadF64(base)))
		case rLoadMulI:
			b, p, step := vm.loads[in.aux].loadRow(c)
			madRow(regs[in.dst][:n], nil, T(in.imm), b, p, step)
		case rMadLoad:
			b, p, step := vm.loads[in.aux].loadRow(c)
			madRow(regs[in.dst][:n], regs[in.a][:n], T(in.imm), b, p, step)
		case rAdd:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = a[i] + b[i]
			}
		case rSub:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = a[i] - b[i]
			}
		case rMul:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = a[i] * b[i]
			}
		case rDiv:
			t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
			for i := range t {
				t[i] = a[i] / b[i]
			}
		case rAddI:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], T(in.imm)
			for i := range t {
				t[i] = a[i] + v
			}
		case rISub:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], T(in.imm)
			for i := range t {
				t[i] = v - a[i]
			}
		case rMulI:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], T(in.imm)
			for i := range t {
				t[i] = a[i] * v
			}
		case rDivI:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], T(in.imm)
			for i := range t {
				t[i] = a[i] / v
			}
		case rIDiv:
			t, a, v := regs[in.dst][:n], regs[in.a][:n], T(in.imm)
			for i := range t {
				t[i] = v / a[i]
			}
		case rNeg:
			t, a := regs[in.dst][:n], regs[in.a][:n]
			for i := range t {
				t[i] = -a[i]
			}
		case rSqrt:
			t, a := regs[in.dst][:n], regs[in.a][:n]
			for i := range t {
				t[i] = T(math.Sqrt(float64(a[i])))
			}
		case rMulAdd:
			t, a, b, cc := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n], regs[in.m][:n]
			for i := range t {
				t[i] = T(a[i]*b[i]) + cc[i]
			}
		case rAxpy:
			t, a, b, v := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n], T(in.imm)
			for i := range t {
				t[i] = T(v*a[i]) + b[i]
			}
		case rSelect:
			t, a, b, m := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n], bregs[in.m][:n]
			for i := range t {
				if m[i] {
					t[i] = a[i]
				} else {
					t[i] = b[i]
				}
			}
		case bConst:
			fill(bregs[in.dst][:n], in.imm != 0)
		case bCmp:
			cmpRow(bregs[in.dst][:n], regs[in.a][:n], regs[in.b][:n], expr.CmpOp(in.aux))
		case bCmpI:
			cmpRowImm(bregs[in.dst][:n], regs[in.a][:n], T(in.imm), expr.CmpOp(in.aux))
		case bAnd:
			t, a, b := bregs[in.dst][:n], bregs[in.a][:n], bregs[in.b][:n]
			for i := range t {
				t[i] = a[i] && b[i]
			}
		case bOr:
			t, a, b := bregs[in.dst][:n], bregs[in.a][:n], bregs[in.b][:n]
			for i := range t {
				t[i] = a[i] || b[i]
			}
		case bNot:
			t, a := bregs[in.dst][:n], bregs[in.a][:n]
			for i := range t {
				t[i] = !a[i]
			}
		default:
			typedOp(vm, c, in, regs)
		}
	}
	return regs[vm.res][:n]
}

func fill[E any](t []E, v E) {
	for i := range t {
		t[i] = v
	}
}

// typedOp evaluates an instruction whose meaning depends on the register
// type, switching on the type once per row.
func typedOp[T vmNum](vm *rowVM, c *RowCtx, in *rinstr, regs [][]T) {
	switch r := any(regs).(type) {
	case [][]float64:
		vm.op64(c, in, r)
	case [][]float32:
		op32(in, r, c.n)
	case [][]int64:
		opInt(in, r, c.n)
	}
}

// op64 evaluates the float64 forms of the typed opcodes, and the opcodes only
// the float64 set implements: pow, the transcendentals, index rows and
// gathers. min and max are math.Min and math.Max, through their inlinable
// forms numeric.Min64/Max64.
func (vm *rowVM) op64(c *RowCtx, in *rinstr, regs [][]float64) {
	n, v := c.n, in.imm
	t, a, b := regs[in.dst][:n], regs[in.a][:n], regs[in.b][:n]
	switch in.op {
	case rMod:
		for i := range t {
			t[i] = math.Mod(a[i], b[i])
		}
	case rModI:
		for i := range t {
			t[i] = math.Mod(a[i], v)
		}
	case rMin:
		for i := range t {
			t[i] = numeric.Min64(a[i], b[i])
		}
	case rMax:
		for i := range t {
			t[i] = numeric.Max64(a[i], b[i])
		}
	case rMinI:
		for i := range t {
			t[i] = numeric.Min64(a[i], v)
		}
	case rMaxI:
		for i := range t {
			t[i] = numeric.Max64(a[i], v)
		}
	case rClampI:
		hi := in.imm2
		for i := range t {
			t[i] = numeric.Min64(numeric.Max64(a[i], v), hi)
		}
	case rFDiv:
		for i := range t {
			t[i] = math.Floor(a[i] / b[i])
		}
	case rFDivI:
		for i := range t {
			t[i] = math.Floor(a[i] / v)
		}
	case rPow:
		for i := range t {
			t[i] = math.Pow(a[i], b[i])
		}
	case rPowI:
		for i := range t {
			t[i] = math.Pow(a[i], v)
		}
	case rAbs:
		for i := range t {
			t[i] = math.Abs(a[i])
		}
	case rExp:
		for i := range t {
			t[i] = numeric.Exp(a[i])
		}
	case rLog:
		for i := range t {
			t[i] = math.Log(a[i])
		}
	case rSin:
		for i := range t {
			t[i] = math.Sin(a[i])
		}
	case rCos:
		for i := range t {
			t[i] = math.Cos(a[i])
		}
	case rFloor:
		for i := range t {
			t[i] = math.Floor(a[i])
		}
	case rCeil:
		for i := range t {
			t[i] = math.Ceil(a[i])
		}
	case rCast:
		to := expr.Type(in.aux)
		for i := range t {
			t[i] = expr.ApplyCast(to, a[i])
		}
	case rIdx:
		vm.idxs[in.aux].row(c, t)
	case rGather:
		vm.gathers[in.aux].run(c, regs, t)
	}
}

// cmpRow sets t[i] = a[i] <op> b[i].
func cmpRow[T vmNum](t []bool, a, b []T, op expr.CmpOp) {
	switch op {
	case expr.LT:
		for i := range t {
			t[i] = a[i] < b[i]
		}
	case expr.LE:
		for i := range t {
			t[i] = a[i] <= b[i]
		}
	case expr.GT:
		for i := range t {
			t[i] = a[i] > b[i]
		}
	case expr.GE:
		for i := range t {
			t[i] = a[i] >= b[i]
		}
	case expr.EQ:
		for i := range t {
			t[i] = a[i] == b[i]
		}
	case expr.NE:
		for i := range t {
			t[i] = a[i] != b[i]
		}
	}
}

// cmpRowImm sets t[i] = a[i] <op> v.
func cmpRowImm[T vmNum](t []bool, a []T, v T, op expr.CmpOp) {
	switch op {
	case expr.LT:
		for i := range t {
			t[i] = a[i] < v
		}
	case expr.LE:
		for i := range t {
			t[i] = a[i] <= v
		}
	case expr.GT:
		for i := range t {
			t[i] = a[i] > v
		}
	case expr.GE:
		for i := range t {
			t[i] = a[i] >= v
		}
	case expr.EQ:
		for i := range t {
			t[i] = a[i] == v
		}
	case expr.NE:
		for i := range t {
			t[i] = a[i] != v
		}
	}
}
