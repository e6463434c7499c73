package lint

import (
	"go/ast"
	"go/types"
	"sort"
)

// defaultHotpaths is the repository's pinned 0-allocs/op surface: the
// steady-state event loop guarded by TestSteadyStateEventLoopAllocFree
// and TestSteadyStateAllocFreeAllArrivals (internal/wormhole), the
// workload draw guarded by TestArrivalAndDestAllocFree
// (internal/traffic), the scheduler operations under them, and the
// analytical model's fixed-point kernel guarded by
// TestResolveDoesNotAllocate (internal/core). Adding a
// function here requires the matching alloc guard; annotating a function
// not listed here is itself a diagnostic, so directive placement and the
// bench list can never drift apart.
func defaultHotpaths() map[string][]string {
	return map[string][]string{
		"quarc/internal/core": {
			"Model.addFlow",
			"Model.fixedPoint",
			"Model.load",
			"waitOf",
		},
		"quarc/internal/sim": {
			"Engine.ReserveSeq",
			"Engine.Schedule",
			"Engine.ScheduleSeq",
			"Engine.laneFor",
			"Engine.put",
			"Engine.run",
			"eventHeap.pop",
			"eventHeap.push",
			"keyLess",
			"lane.front",
			"lane.place",
		},
		"quarc/internal/traffic": {
			"Workload.Interarrival",
			"Workload.Next",
			"Workload.uniformDest",
			"Workload.weightedDest",
			"bernoulliArrival.Gap",
			"geometric",
			"onoffArrival.Gap",
			"periodicArrival.Gap",
			"poissonArrival.Gap",
		},
		"quarc/internal/wormhole": {
			"Network.Handle",
			"Network.addSample",
			"Network.busySpan",
			"Network.complete",
			"Network.fire",
			"Network.flushSpans",
			"Network.foldSamples",
			"Network.generate",
			"Network.getMessage",
			"Network.getWorm",
			"Network.grant",
			"Network.putMessage",
			"Network.putWorm",
			"Network.release",
			"Network.releaseSpanned",
			"Network.request",
			"Network.scheduleGeneration",
			"Network.spanDone",
			"Network.spanStart",
			"Network.trace",
		},
	}
}

// funcKey names a declaration the way the hot-path list does: "Name" for
// plain functions, "Recv.Name" (pointerless receiver type) for methods.
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Strip any type parameters (generic receivers).
	if idx, ok := t.(*ast.IndexExpr); ok {
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// checkHotpath enforces the //quarc:hotpath contract. The directive is a
// promise the benchmarks hold the function to — 0 allocs/op in steady
// state — so the body may not do anything that defeats it at the source
// level: call fmt (boxes every operand), build composite literals that
// escape to the heap, box non-pointer values into interfaces, or
// allocate a closure. Code on a panic path is exempt: a taken panic ends
// the run, so its allocations are free.
//
// Placement is checked in both directions against the configured bench
// list: a listed function missing the directive and a directive on an
// unlisted function are both diagnostics.
func checkHotpath(cx *context) {
	required := make(map[string]bool)
	for _, name := range cx.cfg.Hotpaths[cx.pkg.Path] {
		required[name] = true
	}
	seen := make(map[string]bool)
	for _, f := range cx.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			key := funcKey(fd)
			annotated := hasHotpathDirective(fd.Doc)
			if required[key] {
				seen[key] = true
				if !annotated {
					cx.reportf(fd.Pos(), "%s is on the 0-allocs/op bench list but lacks the %s directive", key, hotpathDirective)
				}
			} else if annotated {
				cx.reportf(fd.Pos(), "%s carries %s but is not on the 0-allocs/op bench list (add it to the lint hot-path list alongside an alloc guard)", key, hotpathDirective)
			}
			if annotated && fd.Body != nil {
				cx.checkPurity(fd)
			}
		}
	}
	missing := make([]string, 0, len(required))
	for name := range required {
		if !seen[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		cx.reportf(cx.pkg.Files[0].Package, "hot-path function %s is pinned by the bench list but not declared in %s", name, cx.pkg.Path)
	}
}

// checkPurity walks one annotated function, skipping panic arguments
// (cold by construction).
func (cx *context) checkPurity(fd *ast.FuncDecl) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if cx.isPanic(n) {
				return false // panic path: arguments are cold
			}
			cx.checkCallPurity(n)
		case *ast.FuncLit:
			cx.reportf(n.Pos(), "hot path captures a closure: each func literal costs an allocation")
			return false
		case *ast.UnaryExpr:
			if n.Op.String() == "&" {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					cx.reportf(n.Pos(), "hot path takes the address of a composite literal: it escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if t := cx.typeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					cx.reportf(n.Pos(), "hot path builds a slice literal: the backing array is heap-allocated")
				case *types.Map:
					cx.reportf(n.Pos(), "hot path builds a map literal: maps are heap-allocated")
				}
			}
			cx.checkCompositeBoxing(n)
		case *ast.AssignStmt:
			cx.checkAssignBoxing(n)
		case *ast.ReturnStmt:
			cx.checkReturnBoxing(fd, n)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// isPanic reports whether the call is the builtin panic.
func (cx *context) isPanic(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := cx.pkg.TypesInfo.Uses[id].(*types.Builtin)
	return isBuiltin
}

func (cx *context) checkCallPurity(call *ast.CallExpr) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if _, ok := cx.pkg.TypesInfo.Uses[fun].(*types.Builtin); ok {
				cx.reportf(call.Pos(), "hot path calls make: allocation in steady state")
			}
		case "new":
			if _, ok := cx.pkg.TypesInfo.Uses[fun].(*types.Builtin); ok {
				cx.reportf(call.Pos(), "hot path calls new: allocation in steady state")
			}
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := cx.pkg.TypesInfo.Uses[id].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				cx.reportf(call.Pos(), "hot path calls fmt.%s: formatting boxes every operand", fun.Sel.Name)
			}
		}
	}
	cx.checkArgBoxing(call)
}

// pointerShaped reports whether values of t fit an interface's data word
// without a heap copy: pointers, channels, maps, functions and unsafe
// pointers do; everything else (ints, floats, strings, structs, slices)
// is boxed when converted to an interface.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// boxes reports whether assigning src (an expression of type st) to a
// destination of type dt converts a non-interface value into an
// interface and allocates doing so.
func (cx *context) boxes(src ast.Expr, dt types.Type) bool {
	if dt == nil {
		return false
	}
	if _, ok := dt.Underlying().(*types.Interface); !ok {
		return false
	}
	st := cx.typeOf(src)
	if st == nil {
		return false
	}
	if tv, ok := cx.pkg.TypesInfo.Types[src]; ok && tv.IsNil() {
		return false
	}
	if _, ok := st.Underlying().(*types.Interface); ok {
		return false // interface-to-interface copies, no box
	}
	return !pointerShaped(st)
}

func (cx *context) reportBox(src ast.Expr, dt types.Type) {
	cx.reportf(src.Pos(), "hot path boxes a %s into %s: interface conversion allocates", cx.typeOf(src), dt)
}

func (cx *context) checkArgBoxing(call *ast.CallExpr) {
	sig, ok := cx.typeOf(call.Fun).(*types.Signature)
	if !ok {
		// Conversion, not a call: T(x) boxes when T is an interface.
		if t := cx.typeOf(call); t != nil && len(call.Args) == 1 && cx.boxes(call.Args[0], t) {
			cx.reportBox(call.Args[0], t)
		}
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice, no per-arg boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if cx.boxes(arg, pt) {
			cx.reportBox(arg, pt)
		}
	}
}

func (cx *context) checkAssignBoxing(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return // comma-ok and multi-value calls: conversions are explicit elsewhere
	}
	for i, rhs := range as.Rhs {
		if cx.boxes(rhs, cx.typeOf(as.Lhs[i])) {
			cx.reportBox(rhs, cx.typeOf(as.Lhs[i]))
		}
	}
}

func (cx *context) checkReturnBoxing(fd *ast.FuncDecl, ret *ast.ReturnStmt) {
	obj, ok := cx.pkg.TypesInfo.Defs[fd.Name]
	if !ok {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		if cx.boxes(r, sig.Results().At(i).Type()) {
			cx.reportBox(r, sig.Results().At(i).Type())
		}
	}
}

// checkCompositeBoxing flags struct-literal fields that box: assigning a
// concrete non-pointer value to an interface-typed field. A pointer fits
// the interface's data word, so storing one never allocates.
func (cx *context) checkCompositeBoxing(lit *ast.CompositeLit) {
	t := cx.typeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	fieldByName := func(name string) types.Type {
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i).Name() == name {
				return st.Field(i).Type()
			}
		}
		return nil
	}
	for i, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				if ft := fieldByName(key.Name); cx.boxes(kv.Value, ft) {
					cx.reportBox(kv.Value, ft)
				}
			}
			continue
		}
		if i < st.NumFields() && cx.boxes(elt, st.Field(i).Type()) {
			cx.reportBox(elt, st.Field(i).Type())
		}
	}
}
