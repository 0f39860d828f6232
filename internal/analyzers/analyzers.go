// Package analyzers is recipelint's rule suite: custom static
// analyzers that enforce the project invariants the paper's
// reproducibility rests on — bit-determinism of the modeling packages,
// context propagation, durable-write discipline, fault-point hygiene,
// and the typed quarantine taxonomy. The rules are encoded against the
// stdlib go/types facts of every non-test package; cmd/recipelint is
// the driver and `make lint` the entry point.
//
// Every finding carries a rule name and a fix hint, and any finding
// can be silenced at its line (or the line above) with a justified
// directive:
//
//	//recipelint:allow <rule> <reason>
//
// A directive without a reason, for an unknown rule, or that silences
// nothing is itself a finding — suppressions stay minimal and honest.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Pos is the violation's resolved file position.
	Pos token.Position
	// Rule names the analyzer (or "directive" for suppression misuse).
	Rule string
	// Message states the violation.
	Message string
	// Hint says how to fix it.
	Hint string
}

// String renders a finding as file:line:col: rule: message (fix: hint).
func (f Finding) String() string {
	s := fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Message)
	if f.Hint != "" {
		s += " (fix: " + f.Hint + ")"
	}
	return s
}

// Pass is one analyzer's view of one package.
type Pass struct {
	// Fset resolves token positions for the whole loaded universe.
	Fset *token.FileSet
	// Pkg is the package under analysis.
	Pkg *Package
	// report records a raw finding (suppression is applied later).
	report func(pos token.Pos, msg, hint string)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, msg, hint string) { p.report(pos, msg, hint) }

// Info is the package's type-checker facts.
func (p *Pass) Info() *types.Info { return p.Pkg.Info }

// Analyzer is one recipelint rule. Run is invoked once per package;
// Finish, when non-nil, runs after every package and carries
// module-wide checks (e.g. fault-point name collisions). Analyzers may
// keep state between Run calls, so instances must not be reused across
// independent lint runs — construct a fresh suite with All.
type Analyzer struct {
	// Name is the rule name used in findings and allow directives.
	Name string
	// Doc is a one-line description for -list.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
	// Finish reports module-wide findings after all packages ran.
	Finish func(report func(pos token.Pos, msg, hint string))
	// Tests opts the rule into test universes (Package.Test). Rules
	// that encode production-path invariants leave it false and see
	// only base packages; the concurrency-contract rules (DESIGN §16)
	// set it — test helpers hold locks and borrow pool values too,
	// and nosleep exists only for test packages.
	Tests bool
}

// All returns a fresh instance of every analyzer, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		NewNondeterminism(),
		NewCtxflow(),
		NewAtomicwrite(),
		NewFaultpoint(),
		NewErrtaxonomy(),
		NewLocksafe(),
		NewPoolscope(),
		NewSingleload(),
		NewNosleep(),
	}
}

// AllNames returns the rule names of every analyzer.
func AllNames() []string {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
	}
	return names
}

// deterministicPkgs are the packages whose output must be
// bit-identical run to run (parallel == serial, resume == fresh):
// the modeling pipeline and everything it trains on. Matched by final
// import-path segment.
var deterministicPkgs = map[string]bool{
	"core":        true,
	"crf":         true,
	"cluster":     true,
	"ner":         true,
	"perceptron":  true,
	"depparse":    true,
	"experiments": true,
	// The rules tier must answer identically on every replica: it is
	// the thing the fleet degrades to in unison.
	"rules": true,
	// The sharded query service's byte identity rests on similarity
	// scores agreeing to the last ulp across shard counts.
	"similarity": true,
	// The same corpus must publish byte-identical snapshot segments:
	// a string table emitted in map order would change every digest.
	"snapshot": true,
	// The embedded default tagger must regenerate to identical bytes:
	// a feature list written in map order would change them.
	"postag": true,
}

// durablePkgs are the packages that persist durable artifacts and so
// must write through checkpoint.WriteFileAtomic or an fsynced sink.
// Matched by final import-path segment.
var durablePkgs = map[string]bool{
	"checkpoint": true,
	"persist":    true,
	"quarantine": true,
	"recipemine": true,
	"snapshot":   true,
}

// lastSegment returns the final element of an import path.
func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// isDeterministic reports whether the package must be bit-deterministic.
func isDeterministic(path string) bool { return deterministicPkgs[lastSegment(path)] }

// isDurable reports whether the package persists durable artifacts.
func isDurable(path string) bool { return durablePkgs[lastSegment(path)] }

// isInternal reports whether the import path lies under an internal/
// directory.
func isInternal(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// pathEndsWith reports whether an import path equals want or ends with
// "/"+want — how rules recognize project packages (internal/faults,
// internal/quarantine) in both the real module and testdata universes.
func pathEndsWith(path, want string) bool {
	return path == want || strings.HasSuffix(path, "/"+want)
}

// callee resolves the function or method a call statically invokes;
// nil for builtins, conversions, and calls through function values.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// recvOf returns the receiver of fn, or nil for package-level
// functions. (types.Func.Signature is a Go 1.23 API; the module
// declares go 1.22, so go through Type().)
func recvOf(fn *types.Func) *types.Var {
	return fn.Type().(*types.Signature).Recv()
}

// sigOf returns fn's signature.
func sigOf(fn *types.Func) *types.Signature {
	return fn.Type().(*types.Signature)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// errorIface is the universe error interface.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	return types.Implements(t, errorIface)
}

// withStack walks root depth-first, passing each node together with
// its ancestor chain (outermost first, excluding the node itself).
func withStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// enclosingFuncs returns the function declarations and literals on the
// ancestor stack, innermost last.
func enclosingFuncs(stack []ast.Node) []ast.Node {
	var fns []ast.Node
	for _, n := range stack {
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fns = append(fns, n)
		}
	}
	return fns
}

// ctxParam returns the named context.Context parameter object of a
// function node, or nil. Unnamed context parameters cannot be threaded
// and so do not count.
func ctxParam(info *types.Info, fn ast.Node) *types.Var {
	var ft *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		ft = fn.Type
	case *ast.FuncLit:
		ft = fn.Type
	default:
		return nil
	}
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			obj, ok := info.Defs[name].(*types.Var)
			if ok && obj.Name() != "_" && isContextType(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}
