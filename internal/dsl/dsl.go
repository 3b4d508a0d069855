// Package dsl implements the PolyMage language constructs of Section 2 of
// the paper, embedded in Go (the paper embeds them in Python): Parameter,
// Image, Variable, Interval, Condition, Case, Function, Stencil and
// Accumulator/Accumulate. A Builder collects the declarations of one
// pipeline specification.
package dsl

import (
	"fmt"

	"repro/internal/affine"
	"repro/internal/buffer"
	"repro/internal/expr"
)

// Builder collects the parameters, images and stages of one pipeline
// specification and guarantees unique names within it.
type Builder struct {
	params  map[string]*Parameter
	images  map[string]*Image
	stages  map[string]Stage
	order   []string // stage declaration order, for deterministic output
	varSeq  int
	autoSeq int
}

// NewBuilder returns an empty pipeline specification.
func NewBuilder() *Builder {
	return &Builder{
		params: make(map[string]*Parameter),
		images: make(map[string]*Image),
		stages: make(map[string]Stage),
	}
}

// Stage is the compiler's view of a pipeline stage: a Function or an
// Accumulator.
type Stage interface {
	Name() string
	ElemType() expr.Type
	NumDims() int
	Domain() affine.Domain
	VarNames() []string
	IsAccumulator() bool
}

// Parameter declares an integer pipeline parameter (e.g. image width).
type Parameter struct{ name string }

// Param declares a named integer parameter.
func (b *Builder) Param(name string) *Parameter {
	if _, dup := b.params[name]; dup {
		panic(fmt.Sprintf("dsl: duplicate parameter %q", name))
	}
	p := &Parameter{name: name}
	b.params[name] = p
	return p
}

// Name returns the parameter's name.
func (p *Parameter) Name() string { return p.name }

// Expr returns the parameter as a scalar expression.
func (p *Parameter) Expr() expr.Expr { return expr.ParamRef{Name: p.name} }

// Affine returns the parameter as an affine expression (for bounds).
func (p *Parameter) Affine() affine.Expr { return affine.Param(p.name) }

// Variable is an integer loop variable labeling one function dimension.
// Variables are resolved positionally when a Function is defined, so the
// same Variable may be reused across functions (as in the paper's examples).
type Variable struct {
	id   string // unique within the builder
	name string // display name
}

// Var declares a loop variable with a display name.
func (b *Builder) Var(name string) *Variable {
	b.varSeq++
	return &Variable{id: fmt.Sprintf("%s#%d", name, b.varSeq), name: name}
}

// Name returns the variable's display name.
func (v *Variable) Name() string { return v.name }

// Expr returns an unresolved reference to the variable; Function.Define
// resolves it to the variable's dimension index.
func (v *Variable) Expr() expr.Expr { return expr.VarRef{Dim: -1, Name: v.id} }

// Interval declares the range [Lo, Hi] of a variable; bounds are affine in
// the parameters. (The paper's Interval has a step argument; only step 1 is
// supported — strided patterns are expressed through sampling accesses, as
// in the paper's own benchmarks.)
type Interval struct {
	Lo, Hi affine.Expr
}

// Span builds an interval from affine bounds.
func Span(lo, hi affine.Expr) Interval { return Interval{Lo: lo, Hi: hi} }

// ConstSpan builds an interval from constant bounds.
func ConstSpan(lo, hi int64) Interval {
	return Interval{Lo: affine.Const(lo), Hi: affine.Const(hi)}
}

// Image declares a pipeline input: typ and the extent of each dimension.
// The domain of dimension d is [0, extent_d - 1].
type Image struct {
	name    string
	typ     expr.Type
	extents []affine.Expr
}

// Image declares an input image.
func (b *Builder) Image(name string, typ expr.Type, extents ...affine.Expr) *Image {
	if _, dup := b.images[name]; dup {
		panic(fmt.Sprintf("dsl: duplicate image %q", name))
	}
	if _, dup := b.stages[name]; dup {
		panic(fmt.Sprintf("dsl: image name %q collides with a stage", name))
	}
	im := &Image{name: name, typ: typ, extents: extents}
	b.images[name] = im
	return im
}

// Name returns the image's name.
func (im *Image) Name() string { return im.name }

// ElemType returns the image's element type.
func (im *Image) ElemType() expr.Type { return im.typ }

// NumDims returns the image's rank.
func (im *Image) NumDims() int { return len(im.extents) }

// Domain returns the image's domain ([0, extent-1] per dimension).
func (im *Image) Domain() affine.Domain {
	d := make(affine.Domain, len(im.extents))
	for i, e := range im.extents {
		d[i] = Interval{Lo: affine.Const(0), Hi: e.AddConst(-1)}.toAffine()
	}
	return d
}

func (iv Interval) toAffine() affine.Interval { return affine.Interval{Lo: iv.Lo, Hi: iv.Hi} }

// NewBuffer allocates a buffer matching the image's domain under the given
// parameter binding — the one documented way to build an input buffer for a
// declared image.
func (im *Image) NewBuffer(params map[string]int64) (*buffer.Buffer, error) {
	return buffer.NewForDomain(im.Domain(), params)
}

// At builds an access to the image. Arguments may be *Variable, *Parameter,
// expr.Expr or integer constants.
func (im *Image) At(args ...any) expr.Expr {
	return expr.Access{Target: im.name, Args: toExprs(args)}
}

// Case pairs a condition with the expression defining the function where the
// condition holds. A nil Cond means "everywhere in the domain". Where the
// conditions of several cases hold at once, the first of them in Define's
// order defines the point: a guard then a default is the usual idiom.
type Case struct {
	Cond expr.Cond
	E    expr.Expr
}

// Function declares a stage mapping a multi-dimensional integer domain to a
// scalar value (the central construct of the language).
type Function struct {
	name  string
	typ   expr.Type
	vars  []*Variable
	dom   affine.Domain
	cases []Case // with variables resolved to dimension indices
}

// Func declares a function stage with the given domain variables and their
// ranges.
func (b *Builder) Func(name string, typ expr.Type, vars []*Variable, dom []Interval) *Function {
	if name == "" {
		b.autoSeq++
		name = fmt.Sprintf("_f%d", b.autoSeq)
	}
	if _, dup := b.stages[name]; dup {
		panic(fmt.Sprintf("dsl: duplicate stage %q", name))
	}
	if _, dup := b.images[name]; dup {
		panic(fmt.Sprintf("dsl: stage name %q collides with an image", name))
	}
	if len(vars) != len(dom) {
		panic(fmt.Sprintf("dsl: %q: %d variables but %d intervals", name, len(vars), len(dom)))
	}
	ad := make(affine.Domain, len(dom))
	for i, iv := range dom {
		ad[i] = iv.toAffine()
	}
	f := &Function{name: name, typ: typ, vars: vars, dom: ad}
	b.stages[name] = f
	b.order = append(b.order, name)
	return f
}

// Name returns the function's name.
func (f *Function) Name() string { return f.name }

// ElemType returns the function's element type.
func (f *Function) ElemType() expr.Type { return f.typ }

// NumDims returns the function's rank.
func (f *Function) NumDims() int { return len(f.vars) }

// Domain returns the function's parametric domain.
func (f *Function) Domain() affine.Domain { return f.dom }

// VarNames returns the display names of the domain variables.
func (f *Function) VarNames() []string {
	names := make([]string, len(f.vars))
	for i, v := range f.vars {
		names[i] = v.name
	}
	return names
}

// IsAccumulator reports false for plain functions.
func (f *Function) IsAccumulator() bool { return false }

// Define sets the function's piecewise definition. Variables in the case
// expressions are resolved against the function's domain variables;
// referencing a variable outside the domain is an error.
func (f *Function) Define(cases ...Case) *Function {
	if len(f.cases) > 0 {
		panic(fmt.Sprintf("dsl: %q already defined", f.name))
	}
	if len(cases) == 0 {
		panic(fmt.Sprintf("dsl: %q defined with no cases", f.name))
	}
	for _, c := range cases {
		if c.E == nil {
			panic(fmt.Sprintf("dsl: %q case with nil expression", f.name))
		}
		rc := Case{E: f.resolve(c.E)}
		if c.Cond != nil {
			rc.Cond = f.resolveCond(c.Cond)
		}
		f.cases = append(f.cases, rc)
	}
	return f
}

// DefCases returns the resolved piecewise definition.
func (f *Function) DefCases() []Case { return f.cases }

// At builds an access to the function. Arguments may be *Variable,
// *Parameter, expr.Expr or integer constants.
func (f *Function) At(args ...any) expr.Expr {
	return expr.Access{Target: f.name, Args: toExprs(args)}
}

func (f *Function) resolve(e expr.Expr) expr.Expr {
	return expr.Transform(e, func(x expr.Expr) expr.Expr {
		if v, ok := x.(expr.VarRef); ok && v.Dim == -1 {
			for i, fv := range f.vars {
				if fv.id == v.Name {
					return expr.VarRef{Dim: i, Name: fv.name}
				}
			}
			panic(fmt.Sprintf("dsl: %q references variable %q outside its domain", f.name, v.Name))
		}
		return nil
	})
}

func (f *Function) resolveCond(c expr.Cond) expr.Cond {
	return expr.TransformCond(c, func(x expr.Expr) expr.Expr {
		if v, ok := x.(expr.VarRef); ok && v.Dim == -1 {
			for i, fv := range f.vars {
				if fv.id == v.Name {
					return expr.VarRef{Dim: i, Name: fv.name}
				}
			}
			panic(fmt.Sprintf("dsl: %q condition references variable %q outside its domain", f.name, v.Name))
		}
		return nil
	})
}

// Stages returns all declared stages in declaration order.
func (b *Builder) Stages() []Stage {
	out := make([]Stage, 0, len(b.order))
	for _, n := range b.order {
		out = append(out, b.stages[n])
	}
	return out
}

// Stage looks up a stage by name.
func (b *Builder) Stage(name string) (Stage, bool) {
	s, ok := b.stages[name]
	return s, ok
}

// InputImage looks up an input image by name.
func (b *Builder) InputImage(name string) (*Image, bool) {
	im, ok := b.images[name]
	return im, ok
}

// Images returns all declared input images (map keyed by name).
func (b *Builder) Images() map[string]*Image { return b.images }

// Params returns all declared parameters (map keyed by name).
func (b *Builder) Params() map[string]*Parameter { return b.params }
