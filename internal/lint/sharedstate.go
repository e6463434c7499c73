package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkSharedState guards the package-level state of the result path.
// Concurrent Sweep points and replication workers run simulations side by
// side in one process, so every package-level variable a determinism
// package mutates at runtime — outside init functions, package-level var
// initializers and New*/Reset* constructors — is a finding unless its
// declaration carries a "//quarcflow:shared <reason>" justification: each
// global is either immutable after initialization or has a documented
// concurrency story. Assignment, index/field stores,
// address-taking and pointer-receiver method calls (a mutex Lock mutates
// the mutex) all count as mutation.
const sharedDirective = "//quarcflow:shared"

func checkSharedState(cx *context) {
	if !cx.cfg.isDeterminism(cx.pkg.Path) {
		return
	}
	a := &sharedAudit{
		cx:        cx,
		justified: make(map[types.Object]bool),
		writers:   make(map[types.Object]map[string]bool),
	}
	a.collectGlobals()
	for _, f := range cx.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a.scanFunc(fd)
		}
	}
	a.emit()
}

// sharedAudit accumulates one package's globals and their runtime writers.
type sharedAudit struct {
	cx *context
	// justified holds every package-level var, true when its declaration
	// documents why runtime mutation is safe.
	justified map[types.Object]bool
	writers   map[types.Object]map[string]bool
}

// collectGlobals records every package-level var declaration and whether
// it carries a //quarcflow:shared justification. A malformed directive
// (no reason) is itself a diagnostic, like a malformed waiver.
func (a *sharedAudit) collectGlobals() {
	cx := a.cx
	for _, f := range cx.pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				just, malformedAt := sharedJustification(gd, vs)
				if malformedAt.IsValid() {
					cx.reportf(malformedAt, "malformed %s: a justification reason is required", sharedDirective)
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue // compile-time interface assertions own no state
					}
					if obj := cx.pkg.TypesInfo.Defs[name]; obj != nil {
						a.justified[obj] = just != ""
					}
				}
			}
		}
	}
}

// sharedJustification extracts the //quarcflow:shared reason from a var
// spec's doc or line comments (or the enclosing GenDecl's doc). The
// second result is the position of a malformed (reason-less) directive.
func sharedJustification(gd *ast.GenDecl, vs *ast.ValueSpec) (string, token.Pos) {
	for _, cg := range []*ast.CommentGroup{vs.Doc, vs.Comment, gd.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, sharedDirective) {
				continue
			}
			reason := strings.TrimSpace(strings.TrimPrefix(c.Text, sharedDirective))
			if reason == "" {
				return "", c.Pos()
			}
			return reason, token.NoPos
		}
	}
	return "", token.NoPos
}

// initTimeWriter reports whether writes inside fd count as init-time:
// init functions, New*/new* constructors and Reset* methods.
func initTimeWriter(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	switch {
	case fd.Recv == nil && name == "init":
		return true
	case strings.HasPrefix(name, "New"), strings.HasPrefix(name, "new"):
		return true
	case strings.HasPrefix(name, "Reset"), strings.HasPrefix(name, "reset"):
		return true
	}
	return false
}

// scanFunc records every global mutation fd performs.
func (a *sharedAudit) scanFunc(fd *ast.FuncDecl) {
	if initTimeWriter(fd) {
		return
	}
	cx := a.cx
	who := funcKey(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// A store whose lvalue path is rooted at a global (direct,
			// indexed, or through a field path) mutates that global.
			for _, lhs := range n.Lhs {
				a.addWriter(cx.rootObject(lhs), who)
			}
		case *ast.IncDecStmt:
			a.addWriter(cx.rootObject(n.X), who)
		case *ast.UnaryExpr:
			// &global escapes a mutable reference.
			if n.Op == token.AND {
				a.addWriter(cx.objectOf(n.X), who)
			}
		case *ast.CallExpr:
			// A pointer-receiver method call on a global mutates it
			// (sync.Mutex.Lock, rand.PCG.Seed, ...).
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && cx.isPointerReceiverCall(sel) {
				a.addWriter(cx.objectOf(sel.X), who)
			}
		}
		return true
	})
}

// isPointerReceiverCall reports whether sel resolves to a method with a
// pointer receiver — the shape of a mutating call.
func (cx *context) isPointerReceiverCall(sel *ast.SelectorExpr) bool {
	s, ok := cx.pkg.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	_, isPtr := recv.Type().(*types.Pointer)
	return isPtr
}

// addWriter records who as a runtime writer of obj when obj is one of the
// package's undocumented globals.
func (a *sharedAudit) addWriter(obj types.Object, who string) {
	if justified, tracked := a.justified[obj]; !tracked || justified {
		return
	}
	if a.writers[obj] == nil {
		a.writers[obj] = make(map[string]bool)
	}
	a.writers[obj][who] = true
}

// emit reports the undocumented runtime-mutated globals, naming their
// writers in sorted order.
func (a *sharedAudit) emit() {
	for obj, ws := range a.writers {
		writers := make([]string, 0, len(ws))
		for w := range ws {
			writers = append(writers, w)
		}
		sort.Strings(writers)
		a.cx.reportf(obj.Pos(), "package-level var %s is mutated at runtime on the result path (by %s): document the concurrency story with %s <reason> or refactor to init-time immutability", obj.Name(), strings.Join(writers, ", "), sharedDirective)
	}
}
