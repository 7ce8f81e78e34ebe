package disqo

import (
	"go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// optionWithoutCaller names the exported options that may stay without
// a caller outside the root package, each with the reason.
var optionWithoutCaller = map[string]string{
	"WithSharedTupleLimit": "the DB's only cross-query memory bound; the form it takes is decided with memory accounting, not by deleting it",
}

// TestEveryOptionHasACaller: every exported With*/Without* option of
// package disqo is named by some non-test Go file of a binary, an
// example, an internal package or the benchmark. An option only tests
// set is a mode every differential and every code path must carry for
// no user; its value becomes a constant, and a test that needs another
// value reaches an unexported field through export_test.go.
func TestEveryOptionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	root, err := goparser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	options := make(map[string]bool) // name → has a caller
	for _, f := range root["disqo"].Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(fd.Name.Name, "With") {
				options[fd.Name.Name] = false
			}
		}
	}
	if len(options) == 0 {
		t.Fatal("found no With* options in package disqo")
	}
	for _, dir := range []string{"cmd", "examples", "internal", "benchmark"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := goparser.ParseFile(fset, path, nil, goparser.SkipObjectResolution)
			if err != nil {
				return err
			}
			pkg := ""
			for _, im := range f.Imports {
				if p, _ := strconv.Unquote(im.Path.Value); p == "disqo" {
					pkg = "disqo"
					if im.Name != nil {
						pkg = im.Name.Name
					}
				}
			}
			if pkg == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == pkg {
						if _, ok := options[sel.Sel.Name]; ok {
							options[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var orphans []string
	for name, called := range options {
		if _, allowed := optionWithoutCaller[name]; !called && !allowed {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("options no binary, example, internal package or benchmark sets: %s\n"+
			"make each a constant (a test that needs another value sets an unexported field from export_test.go)",
			strings.Join(orphans, ", "))
	}
	for name, reason := range optionWithoutCaller {
		if called, ok := options[name]; !ok || called {
			t.Errorf("allowlisted option %s (%s) is gone or now has a caller: drop it from optionWithoutCaller", name, reason)
		}
	}
}
