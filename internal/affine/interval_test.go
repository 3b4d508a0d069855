package affine

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// containsRange reports whether o is a subset of r (an empty o always is).
func containsRange(r, o Range) bool {
	return o.Empty() || (o.Lo >= r.Lo && o.Hi <= r.Hi)
}

func TestRangeOps(t *testing.T) {
	a := Range{Lo: 2, Hi: 10}
	b := Range{Lo: 5, Hi: 20}
	if got := a.Intersect(b); got != (Range{Lo: 5, Hi: 10}) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Union(b); got != (Range{Lo: 2, Hi: 20}) {
		t.Errorf("Union = %v", got)
	}
	if a.Size() != 9 {
		t.Errorf("Size = %d", a.Size())
	}
	empty := Range{Lo: 3, Hi: 2}
	if !empty.Empty() || empty.Size() != 0 {
		t.Error("empty range misbehaves")
	}
	if got := a.Union(empty); got != a {
		t.Errorf("Union with empty = %v", got)
	}
}

func TestBoxOps(t *testing.T) {
	a := Box{{0, 9}, {0, 19}}
	b := Box{{5, 14}, {10, 29}}
	inter := a.Intersect(b)
	if inter[0] != (Range{5, 9}) || inter[1] != (Range{10, 19}) {
		t.Errorf("Intersect = %v", inter)
	}
	if a.Size() != 200 {
		t.Errorf("Size = %d", a.Size())
	}
	if !a.Contains([]int64{0, 19}) || a.Contains([]int64{0, 20}) {
		t.Error("Contains wrong")
	}
	hull := a.Union(b)
	for d := range hull {
		if !containsRange(hull[d], a[d]) || !containsRange(hull[d], b[d]) {
			t.Errorf("Union dim %d = %v must contain both", d, hull[d])
		}
	}
}

func TestDomainEval(t *testing.T) {
	d := Domain{
		{Lo: Const(0), Hi: Param("R").Add(Const(1))},
		{Lo: Const(0), Hi: Param("C").Add(Const(1))},
	}
	b, err := d.Eval(map[string]int64{"R": 100, "C": 200})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != (Range{0, 101}) || b[1] != (Range{0, 201}) {
		t.Errorf("Eval = %v", b)
	}
	if _, err := d.Eval(nil); err == nil {
		t.Error("expected unbound-parameter error")
	}
}

func randRange(r *rand.Rand) Range {
	lo := r.Int63n(201) - 100
	return Range{Lo: lo, Hi: lo + r.Int63n(50) - 5} // sometimes empty
}

func TestRangeLatticeProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		a, b, c := randRange(r), randRange(r), randRange(r)
		// Intersection is the greatest lower bound: contained in both.
		i := a.Intersect(b)
		if !i.Empty() && (!containsRange(a, i) || !containsRange(b, i)) {
			return false
		}
		// Union hull contains both.
		u := a.Union(b)
		if !containsRange(u, a) || !containsRange(u, b) {
			return false
		}
		// Commutativity.
		if !a.Empty() && !b.Empty() && u != b.Union(a) {
			return false
		}
		// Membership consistency: point in intersection iff in both.
		for v := int64(-110); v <= 160; v += 13 {
			if i.Contains(v) != (a.Contains(v) && b.Contains(v)) {
				return false
			}
			if !u.Empty() && a.Contains(v) && !u.Contains(v) {
				return false
			}
		}
		// Associativity of union under non-empty operands.
		if !a.Empty() && !b.Empty() && !c.Empty() {
			if a.Union(b).Union(c) != a.Union(b.Union(c)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
