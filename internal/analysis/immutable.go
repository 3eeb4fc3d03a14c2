package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// immutableTypes lists, per package name, the persistent-structure types
// whose fields must never be assigned after construction, and the
// functions allowed to touch them (constructors that build nodes before
// publication). Everything the engine relies on — O(1) snapshots,
// sharing-based equality pruning, cheap version diffs (paper §3.1) —
// breaks silently if a published node is mutated, so the rule is
// enforced even inside the owning package.
var immutableTypes = map[string]map[string][]string{
	"treap": {
		"Node": {"mk", "mkHashed"},
		"Tree": nil,
	},
	"pmap": {
		"Map": nil,
	},
	"relation": {
		"Relation": nil,
		"group":    nil,
	},
}

// ImmutableAnalyzer reports assignments to fields of persistent
// treap/pmap/relation values outside their constructor functions — the
// mutation that silently breaks persistent sharing.
var ImmutableAnalyzer = &Analyzer{
	Name: "immutable",
	Doc:  "flag mutation of persistent treap/pmap/relation nodes after construction",
	Run:  runImmutable,
}

func runImmutable(pass *Pass) error {
	protected := immutableTypes[pass.Pkg.Name()]
	if protected == nil {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch stmt := n.(type) {
				case *ast.AssignStmt:
					if stmt.Tok == token.DEFINE {
						return true
					}
					for _, lhs := range stmt.Lhs {
						checkImmutableTarget(pass, protected, fn, lhs)
					}
				case *ast.IncDecStmt:
					checkImmutableTarget(pass, protected, fn, stmt.X)
				}
				return true
			})
		}
	}
	return nil
}

// checkImmutableTarget reports lhs when it is a field of a protected
// persistent type and the enclosing function is not one of the type's
// constructors.
func checkImmutableTarget(pass *Pass, protected map[string][]string, fn *ast.FuncDecl, lhs ast.Expr) {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	selection, ok := pass.Info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	named := namedOf(selection.Recv())
	if named == nil || named.Obj().Pkg() != pass.Pkg {
		return
	}
	allowed, isProtected := protected[named.Obj().Name()]
	if !isProtected {
		return
	}
	for _, ctor := range allowed {
		if fn.Name.Name == ctor {
			return
		}
	}
	pass.Reportf(lhs.Pos(),
		"assignment to field %s of persistent type %s.%s outside its constructors: persistent nodes are immutable after construction (mutation breaks structural sharing)",
		sel.Sel.Name, pass.Pkg.Name(), named.Obj().Name())
}
