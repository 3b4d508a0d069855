// Package apitext renders the exported surface of a Go package as a
// deterministic, diff-friendly text listing. The repository commits the
// root package's listing as api.txt; `make api` and the root golden test
// regenerate it and fail on any drift, so changes to the public API are
// always explicit in review.
package apitext

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// Dump parses the (non-test) Go files of the package in dir and returns one
// entry per exported declaration, sorted, one block per line group. Doc
// comments are stripped: the listing tracks the surface, not its prose.
//
// An alias of a type from the module's internal packages (`type T = x.U`,
// x imported as <module>/internal/x and read from dir/internal/x) also
// lists U's exported fields as `T.F type` and exported methods as
// `func (*T) M(...)`, through aliases of aliases: the alias line alone
// would hide a field or method removed from U.
func Dump(dir string) (string, error) {
	fset := token.NewFileSet()
	parsed := map[string]*ast.Package{}
	var err error
	parse := func(dir string) *ast.Package {
		if parsed[dir] == nil {
			pkgs, perr := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
				return !strings.HasSuffix(fi.Name(), "_test.go")
			}, parser.ParseComments)
			if err == nil {
				err = perr
			}
			parsed[dir] = &ast.Package{}
			for _, p := range pkgs {
				if !strings.HasSuffix(p.Name, "_test") {
					parsed[dir] = p
				}
			}
		}
		return parsed[dir]
	}
	var entries []string
	// members lists, under the alias, the exported fields and methods of
	// the type typ written in file f.
	var members func(alias string, typ ast.Expr, f *ast.File)
	members = func(alias string, typ ast.Expr, f *ast.File) {
		sel, ok := typ.(*ast.SelectorExpr)
		if !ok {
			return
		}
		_, rel, ok := strings.Cut(importPath(f, sel.X), "/internal/")
		if !ok {
			return
		}
		for _, pf := range parse(filepath.Join(dir, "internal", filepath.FromSlash(rel))).Files {
			for _, decl := range pf.Decls {
				if d, ok := decl.(*ast.FuncDecl); ok && d.Name.IsExported() && recvType(d.Recv) == sel.Sel.Name {
					// Rendered without the receiver's name, the type's name
					// comes first: "func (*U) M(...)" becomes "func (*T) M(...)".
					fn := &ast.FuncDecl{Recv: &ast.FieldList{List: []*ast.Field{{Type: d.Recv.List[0].Type}}}, Name: d.Name, Type: d.Type}
					entries = append(entries, strings.Replace(render(fset, fn), sel.Sel.Name, alias, 1))
				}
				for _, s := range typeSpecs(decl) {
					st, isStruct := s.Type.(*ast.StructType)
					switch {
					case s.Name.Name != sel.Sel.Name:
					case s.Assign.IsValid():
						members(alias, s.Type, pf)
					case isStruct:
						for _, fl := range st.Fields.List {
							t := render(fset, fl.Type)
							if len(fl.Names) == 0 && ast.IsExported(strings.TrimPrefix(t, "*")) {
								entries = append(entries, alias+"."+t) // embedded
							}
							for _, n := range exportedNames(fl.Names) {
								entries = append(entries, alias+"."+n+" "+t)
							}
						}
					}
				}
			}
		}
	}
	for _, f := range parse(dir).Files {
		for _, decl := range f.Decls {
			entries = append(entries, declEntries(fset, decl)...)
			for _, s := range typeSpecs(decl) {
				if s.Name.IsExported() && s.Assign.IsValid() {
					members(s.Name.Name, s.Type, f)
				}
			}
		}
	}
	if err != nil {
		return "", err
	}
	sort.Strings(entries)
	return strings.Join(entries, "\n") + "\n", nil
}

// typeSpecs returns the type declarations of decl.
func typeSpecs(decl ast.Decl) []*ast.TypeSpec {
	var out []*ast.TypeSpec
	if d, ok := decl.(*ast.GenDecl); ok {
		for _, spec := range d.Specs {
			if s, ok := spec.(*ast.TypeSpec); ok {
				out = append(out, s)
			}
		}
	}
	return out
}

// importPath returns the path file f imports under the name x.
func importPath(f *ast.File, x ast.Expr) string {
	for _, im := range f.Imports {
		p := strings.Trim(im.Path.Value, `"`)
		name := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		if id, ok := x.(*ast.Ident); ok && name == id.Name {
			return p
		}
	}
	return ""
}

func declEntries(fset *token.FileSet, decl ast.Decl) []string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || d.Recv != nil && !ast.IsExported(recvType(d.Recv)) {
			return nil
		}
		fn := &ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type}
		return []string{render(fset, fn)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				c := *s
				c.Doc, c.Comment = nil, nil
				out = append(out, render(fset, &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{&c}}))
			case *ast.ValueSpec:
				if len(exportedNames(s.Names)) == 0 {
					continue
				}
				c := *s
				c.Doc, c.Comment = nil, nil
				out = append(out, render(fset, &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{&c}}))
			}
		}
		return out
	}
	return nil
}

func exportedNames(ids []*ast.Ident) []string {
	var out []string
	for _, id := range ids {
		if id.IsExported() {
			out = append(out, id.Name)
		}
	}
	return out
}

// recvType returns the name of a method's receiver type ("" for a
// function).
func recvType(recv *ast.FieldList) string {
	if recv == nil || len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 4}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<render error: %v>", err)
	}
	// Collapse multi-line declarations (struct types etc.) to one line so
	// every entry sorts and diffs as a unit.
	s := buf.String()
	s = strings.Join(strings.Fields(s), " ")
	return s
}
