package lint

import (
	"go/ast"
	"go/types"
)

// checkRegistryHygiene enforces the convention of the
// topology/pattern/spatial/arrival name tables: any function deriving a
// slice from ranging a map sorts it before returning, so List()-style
// enumerations — and the JSON documents built from them (/v1/registry) —
// are byte-stable run to run.
func checkRegistryHygiene(cx *context) {
	for _, f := range cx.pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				cx.checkSortedEnumeration(fd)
			}
		}
	}
}

// checkSortedEnumeration requires a sort in any function that collects
// map keys or values into a slice by ranging: the collect-then-sort
// idiom's missing half is exactly how unsorted enumerations reach JSON
// output. Ranging a map into another map (or accumulating into a map
// index) is order-independent and exempt.
func (cx *context) checkSortedEnumeration(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	collects := false
	sorts := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested closure is its own scope
		case *ast.RangeStmt:
			if t := cx.typeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok && cx.rangeAppendsToSlice(n) {
					collects = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok {
					if pn, ok := cx.pkg.TypesInfo.Uses[id].(*types.PkgName); ok {
						switch pn.Imported().Path() {
						case "sort", "slices":
							sorts = true
						}
					}
				}
			}
		}
		return true
	})
	if collects && !sorts {
		cx.reportf(fd.Pos(), "%s collects map keys into a slice without sorting: enumeration order would vary run to run", funcKey(fd))
	}
}

// rangeAppendsToSlice reports whether the map range's body appends an
// expression derived from the iteration variables into a slice.
func (cx *context) rangeAppendsToSlice(rs *ast.RangeStmt) bool {
	iterObjs := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := cx.pkg.TypesInfo.Defs[id]; obj != nil {
				iterObjs[obj] = true
			}
			if obj := cx.pkg.TypesInfo.Uses[id]; obj != nil {
				iterObjs[obj] = true
			}
		}
	}
	if len(iterObjs) == 0 {
		return false
	}
	usesIter := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && iterObjs[cx.pkg.TypesInfo.Uses[id]] {
				found = true
			}
			return !found
		})
		return found
	}
	appends := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
			if _, builtin := cx.pkg.TypesInfo.Uses[id].(*types.Builtin); builtin {
				for _, arg := range call.Args[1:] {
					if usesIter(arg) {
						appends = true
					}
				}
			}
		}
		return !appends
	})
	return appends
}
