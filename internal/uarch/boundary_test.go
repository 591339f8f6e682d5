package uarch

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCoreNamesNoScheme keeps the core scheme-agnostic: the pipeline drives
// prediction components through the internal/predictor interfaces, so no
// non-test file may import a scheme package, name a config.VP* scheme
// constant, or read cfg.VP.Scheme. The scheme-to-components mapping lives
// in internal/config.
func TestCoreNamesNoScheme(t *testing.T) {
	forbidden := map[string]bool{}
	for _, s := range []string{"pap", "cap", "vtage", "dvtage", "tournament"} {
		forbidden["dlvp/internal/predictor/"+s] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); forbidden[path] {
				t.Errorf("%s imports scheme package %s", fset.Position(imp.Pos()), path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == "config" &&
				strings.HasPrefix(sel.Sel.Name, "VP") && sel.Sel.Name != "VPConfig" {
				t.Errorf("%s names scheme constant config.%s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			if inner, ok := sel.X.(*ast.SelectorExpr); ok && inner.Sel.Name == "VP" && sel.Sel.Name == "Scheme" {
				t.Errorf("%s reads VP.Scheme", fset.Position(sel.Pos()))
			}
			return true
		})
	}
	if checked == 0 {
		t.Fatal("no non-test files found")
	}
}
