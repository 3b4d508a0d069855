package expr

import "math"

// Numbering assigns every subtree of the expressions and conditions it is
// given a dense integer number (0, 1, 2, … in first-seen order) by
// hash-consing: a node's number is the interned tuple of its kind, operator,
// payload and operand numbers, so two subtrees share a number exactly when
// they are structurally equal. Equality is by value: a VarRef is its
// dimension (Name is only for diagnostics), a Const its bits, and Div and
// FDiv are different operators (String prints both as "/"). Value
// numbering keys by it after one bottom-up pass over a piece's tree. Numbers
// are comparable only within one Numbering. Not safe for concurrent use.
type Numbering struct {
	index map[numNode]int
	// ops holds each number's operand numbers at ops[first[n]:first[n+1]]
	// (the last number's run ends at len(ops)).
	ops   []int
	first []int
	uses  []int
}

// numNode is the interning key of one subtree. a, b and c are operand
// numbers, as many as the kind has (the rest stay 0); an Access's
// arguments, of any count, are a chain of argument-list nodes (a: the list
// so far, -1 when empty; b: the next argument) ending in a.
type numNode struct {
	kind    numKind
	op      int
	bits    uint64
	name    string
	a, b, c int
}

type numKind uint8

const (
	numNil numKind = iota
	numConst
	numParam
	numVar
	numAccess
	numArgs
	numBinary
	numUnary
	numSelect
	numCast
	numCmp
	numAnd
	numOr
	numNot
	numBool
)

// NewNumbering returns an empty numbering.
func NewNumbering() *Numbering {
	return &Numbering{index: make(map[numNode]int)}
}

// Len is how many distinct subtrees have been numbered.
func (nb *Numbering) Len() int { return len(nb.first) }

// Uses is how many times the subtree numbered n occurs in the trees numbered
// so far, counted like Walk visits nodes (a shared subtree once per
// occurrence).
func (nb *Numbering) Uses(n int) int { return nb.uses[n] }

// Operand returns the number of operand i of the subtree numbered n, in
// the order: Access arguments; Binary L, R; Unary and Cast X; Select Cond,
// Then, Else; Cmp L, R; And and Or A, B; Not A.
func (nb *Numbering) Operand(n, i int) int { return nb.ops[nb.first[n]+i] }

// Expr numbers e and every subtree below it and returns e's number.
func (nb *Numbering) Expr(e Expr) int {
	switch n := e.(type) {
	case Const:
		return nb.intern(numNode{kind: numConst, bits: math.Float64bits(n.V)})
	case ParamRef:
		return nb.intern(numNode{kind: numParam, name: n.Name})
	case VarRef:
		return nb.intern(numNode{kind: numVar, bits: uint64(n.Dim)})
	case Access:
		var buf [4]int
		args := buf[:0]
		list := -1
		for _, arg := range n.Args {
			x := nb.Expr(arg)
			args = append(args, x)
			list = nb.intern(numNode{kind: numArgs, a: list, b: x})
		}
		return nb.intern(numNode{kind: numAccess, name: n.Target, a: list}, args...)
	case Binary:
		l, r := nb.Expr(n.L), nb.Expr(n.R)
		return nb.intern(numNode{kind: numBinary, op: int(n.Op), a: l, b: r}, l, r)
	case Unary:
		x := nb.Expr(n.X)
		return nb.intern(numNode{kind: numUnary, op: int(n.Op), a: x}, x)
	case Select:
		c, t, f := nb.cond(n.Cond), nb.Expr(n.Then), nb.Expr(n.Else)
		return nb.intern(numNode{kind: numSelect, a: c, b: t, c: f}, c, t, f)
	case Cast:
		x := nb.Expr(n.X)
		return nb.intern(numNode{kind: numCast, op: int(n.To), a: x}, x)
	}
	return nb.intern(numNode{kind: numNil})
}

// cond numbers c and every subtree below it and returns c's number.
func (nb *Numbering) cond(c Cond) int {
	switch n := c.(type) {
	case Cmp:
		l, r := nb.Expr(n.L), nb.Expr(n.R)
		return nb.intern(numNode{kind: numCmp, op: int(n.Op), a: l, b: r}, l, r)
	case And:
		a, b := nb.cond(n.A), nb.cond(n.B)
		return nb.intern(numNode{kind: numAnd, a: a, b: b}, a, b)
	case Or:
		a, b := nb.cond(n.A), nb.cond(n.B)
		return nb.intern(numNode{kind: numOr, a: a, b: b}, a, b)
	case Not:
		a := nb.cond(n.A)
		return nb.intern(numNode{kind: numNot, a: a}, a)
	case BoolConst:
		var bits uint64
		if n.V {
			bits = 1
		}
		return nb.intern(numNode{kind: numBool, bits: bits})
	}
	return nb.intern(numNode{kind: numNil})
}

// intern returns k's number, allocating the next one (with the given
// operand numbers) the first time k is seen, and counts the occurrence.
func (nb *Numbering) intern(k numNode, ops ...int) int {
	n, ok := nb.index[k]
	if !ok {
		n = len(nb.first)
		nb.index[k] = n
		nb.first = append(nb.first, len(nb.ops))
		nb.ops = append(nb.ops, ops...)
		nb.uses = append(nb.uses, 0)
	}
	nb.uses[n]++
	return n
}
