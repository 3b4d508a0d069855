package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// gencarry.go plans loop-carried reuse for EmitGo's plain inner loop, which
// compilers call predictive commoning. Element i of a unit-stride read at
// innermost offset k is element i+k of the buffer row. So two values built
// by the same operations from reads that differ only in that offset — every
// row-varying read displaced by the same s elements, every row-invariant
// operand the same value — are shift-equal: one computes at element i what
// the other computed at element i−s. A class of shift-equal values whose
// lags behind its member of largest displacement (the lead) are exactly
// 1..L is carried: the lead is computed in the loop, and the member lagging
// it by l elements reads the lead's value of l iterations earlier from a
// local that rotates at the end of each iteration. Once per row, a prologue
// evaluates each lagging member at element 0 with the member's own
// operations, which is the lead at elements −1..−L read where the loop
// reads at element 0. Either way the bits are those of the same SSA
// operations on the same inputs, so a kernel that carries computes what the
// row VM computes.
//
// A term is what the plan reasons about: term 2·i is SSA value i, term 2·i+1
// the product that value i adds to another when it is a fused instruction
// (productOps). A harris box sum's 3×3 products are such terms: each output
// reads six of them from the two outputs to its left.

// carryPlan is a kernel's carried classes and what its plain loop computes.
type carryPlan struct {
	class []int  // per term: its carried class, -1 for none
	lag   []int  // per term: the elements it lags its class's lead by
	used  []bool // per term: the loop computes it or reads it from a carried local
	// classes in order of their leads; a class carries locals h<base>… for
	// lags 1..depth (the largest lag the loop reads).
	classes []carryClass
}

type carryClass struct {
	members []int // members[l] lags the lead members[0] by l elements
	depth   int
	base    int
	lead    string // the lead's text in the loop, set while printing
}

// local names the carried local holding term t, the lead l iterations ago.
func (cp *carryPlan) local(t int) string {
	if cp == nil || cp.class[t] < 0 || cp.lag[t] == 0 {
		return ""
	}
	return fmt.Sprintf("h%d", cp.classes[cp.class[t]].base+cp.lag[t]-1)
}

// lead reports whether term t is a carried class's lead, and its class.
func (cp *carryPlan) lead(t int) (*carryClass, bool) {
	if cp == nil || cp.class[t] < 0 || cp.lag[t] != 0 {
		return nil, false
	}
	return &cp.classes[cp.class[t]], true
}

// carried is the number of carried locals.
func (cp *carryPlan) carried() int {
	n := 0
	if cp != nil {
		for _, c := range cp.classes {
			n += c.depth
		}
	}
	return n
}

// productOps reports whether v adds a product to another value, with the
// product's value operands and the addend: rMulAdd's a·b + m, rAxpy's
// imm·a + b, rMadLoad's imm·load + a (a load is no value operand).
func productOps(v vmValue) (ops []int, addend int, ok bool) {
	switch v.op {
	case rMulAdd:
		return []int{v.a, v.b}, v.m, true
	case rAxpy:
		return []int{v.a}, v.b, true
	case rMadLoad:
		return nil, v.a, true
	}
	return nil, -1, false
}

// planCarry finds the shift-equal classes among the varying values of a
// plain-loop kernel computing value res, and which of them the loop carries;
// nil when it carries none.
func (kp *kernelPrinter) planCarry(res int) *carryPlan {
	vals := kp.vb.vals
	n := 2 * len(vals)
	shape, disp := make([]int, n), make([]int64, n)
	ids := map[string]int{}
	intern := func(k string) int {
		id, ok := ids[k]
		if !ok {
			id = len(ids)
			ids[k] = id
		}
		return id
	}
	// operand is one operand of a term: a row-invariant value (inv >= 0) or
	// a shaped varying one.
	type operand struct {
		inv, shape int
		disp       int64
	}
	valueOp := func(o int) (operand, bool) {
		if kp.inv[o] {
			return operand{inv: o}, true
		}
		return operand{inv: -1, shape: shape[2*o], disp: disp[2*o]}, shape[2*o] >= 0
	}
	loadOp := func(aux int32) (operand, bool) {
		l := &kp.vb.loads[aux]
		a := l.affs[l.varDim]
		if l.varDim != l.nd-1 || a.Coeff != 1 || a.Div != 1 {
			return operand{}, false
		}
		var k strings.Builder
		fmt.Fprintf(&k, "L%d/%d", l.slot, l.nd)
		for d, a := range l.affs {
			fmt.Fprintf(&k, " %d,%d,%d", a.Var, a.Coeff, a.Div)
			if d != l.varDim {
				fmt.Fprintf(&k, "+%d", l.offs[d])
			}
		}
		return operand{inv: -1, shape: intern(k.String()), disp: l.offs[l.varDim]}, true
	}
	// term sets term t's shape from a head naming its operation and its
	// operands, displaced relative to the first varying one.
	term := func(t int, head string, ops []operand) {
		base, found := int64(0), false
		k := head
		for _, o := range ops {
			switch {
			case o.inv >= 0:
				k += fmt.Sprintf(" i%d", o.inv)
			case !found:
				base, found = o.disp, true
				fallthrough
			default:
				k += fmt.Sprintf(" s%d@%d", o.shape, o.disp-base)
			}
		}
		if found {
			shape[t], disp[t] = intern(k), base
		}
	}
	imm := func(v float64) string { return fmt.Sprintf("%x", math.Float64bits(v)) }
	for i, v := range vals {
		shape[2*i], shape[2*i+1] = -1, -1
		if kp.inv[i] {
			continue
		}
		switch v.op {
		case rIota, rIdx, rGather, rLoadS, rLoadDiv:
			continue
		case rLoadU:
			if o, ok := loadOp(v.aux); ok {
				shape[2*i], disp[2*i] = o.shape, o.disp
			}
			continue
		}
		var ops []operand
		var oks []bool
		add := func(o operand, ok bool) {
			ops, oks = append(ops, o), append(oks, ok)
		}
		for _, o := range []int{v.a, v.b, v.m} {
			if o >= 0 {
				add(valueOp(o))
			}
		}
		if v.op == rLoadMulI || v.op == rMadLoad {
			add(loadOp(v.aux))
		}
		// shaped sets term t's shape when operands ops[lo:hi] all have one.
		shaped := func(t int, head string, lo, hi int) {
			if !slices.Contains(oks[lo:hi], false) {
				term(t, head, ops[lo:hi])
			}
		}
		// A product has one shape whether it stands alone or is fused into
		// an add: rMul and rMulAdd's a·b, rMulI, rLoadMulI, rAxpy's and
		// rMadLoad's imm·x.
		switch v.op {
		case rMul:
			shaped(2*i, "P", 0, 2)
		case rMulI, rLoadMulI:
			shaped(2*i, "P"+imm(v.imm), 0, 1)
		case rMulAdd:
			shaped(2*i+1, "P", 0, 2)
		case rAxpy:
			shaped(2*i+1, "P"+imm(v.imm), 0, 1)
		case rMadLoad:
			shaped(2*i+1, "P"+imm(v.imm), 1, 2)
		}
		if aux := v.aux; shape[2*i] < 0 {
			if v.op == rMadLoad {
				aux = 0 // a load table index, described by the load operand
			}
			shaped(2*i, fmt.Sprintf("%d %s %s %d", v.op, imm(v.imm), imm(v.imm2), aux), 0, len(ops))
		}
	}

	cp := &carryPlan{class: make([]int, n), lag: make([]int, n), used: make([]bool, n)}
	byShape := map[int][]int{}
	var order []int
	for t, s := range shape {
		if s < 0 {
			continue
		}
		if byShape[s] == nil {
			order = append(order, s)
		}
		byShape[s] = append(byShape[s], t)
	}
	for t := range cp.class {
		cp.class[t] = -1
	}
	for _, s := range order {
		ms := byShape[s]
		slices.SortStableFunc(ms, func(a, b int) int { return cmp.Compare(disp[b], disp[a]) })
		lead := ms[0]
		lags := true // exactly 1..L: no gap, no two members at one displacement
		for l, t := range ms {
			lags = lags && disp[t] == disp[lead]-int64(l)
		}
		if len(ms) < 2 || !lags || vals[lead/2].op == rLoadU && lead%2 == 0 {
			continue // a single value, a gap or repeat, or bare loads
		}
		for l, t := range ms {
			cp.class[t], cp.lag[t] = len(cp.classes), l
		}
		cp.classes = append(cp.classes, carryClass{members: ms})
	}
	if len(cp.classes) == 0 {
		return nil
	}

	// What the loop computes: the result and its operands, where a lagging
	// member needs only its class's lead.
	stack := []int{2 * res}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cp.used[t] {
			continue
		}
		cp.used[t] = true
		v := vals[t/2]
		pops, addend, fused := productOps(v)
		switch {
		case cp.class[t] >= 0 && cp.lag[t] > 0:
			stack = append(stack, cp.classes[cp.class[t]].members[0])
		case t%2 == 1:
			for _, o := range pops {
				stack = append(stack, 2*o)
			}
		case fused:
			stack = append(stack, t+1, 2*addend)
		default:
			for _, o := range args(v) {
				if o >= 0 {
					stack = append(stack, 2*o)
				}
			}
		}
	}
	// A class carries locals up to the largest lag the loop reads; one the
	// loop reads no lag of is no class.
	kept, base := cp.classes[:0], 0
	for _, c := range cp.classes {
		for l, t := range c.members {
			if l > 0 && cp.used[t] {
				c.depth = l
			}
		}
		for l, t := range c.members {
			cp.class[t] = -1
			if l <= c.depth && c.depth > 0 {
				cp.class[t] = len(kept)
			}
		}
		if c.depth > 0 {
			c.base = base
			base += c.depth
			kept = append(kept, c)
		}
	}
	cp.classes = kept
	if len(kept) == 0 {
		return nil
	}
	return cp
}

// rotation is what ends an iteration: each class's locals move one lag
// back, and the lead's value becomes lag 1.
func (cp *carryPlan) rotation() []string {
	var out []string
	for _, c := range cp.classes {
		lhs := make([]string, c.depth)
		for l := range lhs {
			lhs[l] = fmt.Sprintf("h%d", c.base+l)
		}
		rhs := append([]string{c.lead}, lhs[:c.depth-1]...)
		out = append(out, strings.Join(lhs, ", ")+" = "+strings.Join(rhs, ", "))
	}
	return out
}

// prologue prints, once per row before the loop, each carried local's first
// value: its lagging member's own statements at element 0, which compute the
// lead's value that many elements before the row.
func (kp *kernelPrinter) prologue() error {
	vals := kp.vb.vals
	need := make([]bool, len(vals))
	var mark func(o int)
	mark = func(o int) {
		if o < 0 || kp.inv[o] || need[o] {
			return
		}
		need[o] = true
		for _, x := range args(vals[o]) {
			mark(x)
		}
	}
	for _, c := range kp.carry.classes {
		for _, t := range c.members[1 : c.depth+1] {
			if t%2 == 0 {
				mark(t / 2)
				continue
			}
			ops, _, _ := productOps(vals[t/2])
			for _, o := range ops {
				mark(o)
			}
		}
	}
	kp.pro = true
	defer func() { kp.pro = false }()
	for i := range vals {
		if !need[i] {
			continue
		}
		if err := kp.print(i); err != nil {
			return err
		}
	}
	for _, c := range kp.carry.classes {
		for _, t := range c.members[1 : c.depth+1] {
			x := kp.val[t/2]
			if t%2 == 1 {
				x = kp.product(t / 2)
			}
			kp.stmt(inPro, kp.carry.local(t)+" := "+x)
		}
	}
	return nil
}
