package sim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestProtocolPackagesDoNotChooseFences walks the protocol packages'
// non-test sources and fails on an atomic add: atomic.AddInt64 and its
// siblings, or Add on a name declared with an atomic.Int*/Uint* type.
// Statistics go through Thread.Count and the cells of this package,
// which pick plain or atomic per substrate. Load, Store and
// CompareAndSwap on state that threads really share stay legal.
func TestProtocolPackagesDoNotChooseFences(t *testing.T) {
	for _, pkg := range []string{"app", "driver", "event", "fddi", "ip", "msg", "tcp", "udp", "xmap"} {
		paths, _ := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		fset := token.NewFileSet()
		var files []*ast.File
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			t.Fatalf("internal/%s: no sources found", pkg)
		}
		// Fields and variables declared with an atomic integer type.
		atomicInts := map[string]bool{}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var names []*ast.Ident
				var typ ast.Expr
				switch d := n.(type) {
				case *ast.Field:
					names, typ = d.Names, d.Type
				case *ast.ValueSpec:
					names, typ = d.Names, d.Type
				}
				if sel, ok := typ.(*ast.SelectorExpr); ok && lastIdent(sel.X) == "atomic" &&
					(strings.HasPrefix(sel.Sel.Name, "Int") || strings.HasPrefix(sel.Sel.Name, "Uint")) {
					for _, id := range names {
						atomicInts[id.Name] = true
					}
				}
				return true
			})
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, _ := n.(*ast.CallExpr)
				if call == nil {
					return true
				}
				fn, _ := call.Fun.(*ast.SelectorExpr)
				if fn == nil || !strings.HasPrefix(fn.Sel.Name, "Add") {
					return true
				}
				if recv := lastIdent(fn.X); recv == "atomic" || fn.Sel.Name == "Add" && atomicInts[recv] {
					t.Errorf("%s: atomic add in a protocol package; use Thread.Count or a sim cell", fset.Position(call.Pos()))
				}
				return true
			})
		}
	}
}

// hostBranchCeiling is the most substrate tests (host == nil, host !=
// nil) this package's sources may hold. Each is a place where one API
// has two bodies; folding them lowers the count, and the ceiling follows
// it down so no new one creeps in.
const hostBranchCeiling = 23

func TestHostBranchRatchet(t *testing.T) {
	paths, _ := filepath.Glob("*.go")
	branch := regexp.MustCompile(`host [!=]= nil`)
	n := 0
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n += len(branch.FindAll(src, -1))
	}
	switch {
	case n > hostBranchCeiling:
		t.Errorf("%d substrate tests in internal/sim, above the ceiling of %d: fold the new one into an existing branch", n, hostBranchCeiling)
	case n < hostBranchCeiling:
		t.Logf("%d substrate tests, below the ceiling of %d: lower hostBranchCeiling", n, hostBranchCeiling)
	}
}

// lastIdent names the identifier an expression ends in: x for x, f for
// a.b.f, "" for anything else.
func lastIdent(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
