package apitext

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllow lists the exported names under internal/ that no non-test
// code in the module references by name, and why each stays.
var surfaceAllow = map[string]string{
	"Pipeline.NewInputs": "public API through the polymage.Pipeline alias, shown by an Example",
	"SameBits":           "difftest's test library: the bitwise output comparison other packages' tests call",
	"NarrowKnobs":        "difftest's test library: the narrow-type knob sweep other packages' tests run",
	"PipelineCost":       "the greedy schedule's model cost, the oracle the search tests compare against",
	"Unwrap":             "called by errors.Is and errors.As through the interface, never by name",
}

// TestInternalSurfaceReferenced fails on an exported top-level name (a
// function, method, type, constant or variable) declared under internal/
// that no non-test Go file of the repository references by name outside its
// own declaration. Such a name is surface only tests reach: delete it, or
// move it into the test that needs it. The scan is by name, not by type, so
// a common method name counts as referenced wherever any type's method of
// that name is called.
func TestInternalSurfaceReferenced(t *testing.T) {
	root := filepath.Join("..", "..") // the module root, from internal/apitext
	type decl struct{ key, name string }
	var decls []decl
	refs := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		internal := strings.HasPrefix(filepath.ToSlash(rel), "internal/")
		for _, dl := range f.Decls {
			own := map[*ast.Ident]bool{}
			switch d := dl.(type) {
			case *ast.FuncDecl:
				own[d.Name] = true
				key := d.Name.Name
				if d.Recv != nil {
					key = recvType(d.Recv) + "." + key
					// The receiver names the type a method belongs to; it is
					// not a use of that type.
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							own[id] = true
						}
						return true
					})
				}
				if internal && d.Name.IsExported() {
					decls = append(decls, decl{key, d.Name.Name})
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, id := range names {
						own[id] = true
						if internal && id.IsExported() {
							decls = append(decls, decl{id.Name, id.Name})
						}
					}
				}
			}
			// A name used only inside its own declaration (a recursive call,
			// a method on its own type) is not referenced from outside it.
			self := map[string]bool{}
			for id := range own {
				self[id.Name] = true
			}
			ast.Inspect(dl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !own[id] && !self[id.Name] {
					refs[id.Name]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	allowed := map[string]bool{}
	for _, d := range decls {
		if refs[d.name] > 0 {
			continue
		}
		if _, ok := surfaceAllow[d.key]; ok {
			allowed[d.key] = true
		} else if _, ok := surfaceAllow[d.name]; ok {
			allowed[d.name] = true
		} else {
			unused = append(unused, d.key)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported names under internal/ with no non-test reference:\n  %s", strings.Join(unused, "\n  "))
	}
	for name := range surfaceAllow {
		if !allowed[name] {
			t.Errorf("allowlisted %s is no unreferenced exported name under internal/: drop it from surfaceAllow", name)
		}
	}
	if len(surfaceAllow) > 6 {
		t.Errorf("the allowlist holds %d names; keep it to 6", len(surfaceAllow))
	}
}
