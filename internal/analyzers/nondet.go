// The nondeterminism rule. The paper's pipeline promises bit-identical
// output for a fixed seed — parallel == serial, resume == fresh — so
// the modeling packages (core, crf, cluster, ner, perceptron, postag,
// depparse, experiments, rules, similarity) and the snapshot codec
// must never consult a wall clock, draw from the global math/rand
// source, or let Go's randomized map iteration order leak into
// anything they emit or accumulate.
//
// Three checks, all restricted to the deterministic packages:
//
//  1. time.Now / time.Since / time.Until are banned: timestamps must
//     be injected by the caller (cmd/ and internal/server may measure
//     time; the model math may not).
//  2. Package-level math/rand draws (rand.Intn, rand.Float64,
//     rand.Shuffle, ...) are banned: all randomness flows through a
//     seeded *rand.Rand handed down from the run configuration
//     (recipedb.Fork / rand.New(rand.NewSource(seed))). Constructors
//     (rand.New, rand.NewSource) are exactly how such RNGs are built
//     and stay legal.
//  3. A `for ... range m` over a map must not write to an output
//     stream inside the loop body, and a slice appended to under the
//     loop must be sorted later in the same function (the
//     collect-keys-then-sort idiom); otherwise map iteration order —
//     randomized per run by the runtime — becomes output order.

package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// bannedClockFuncs are the time package functions that read the wall
// clock.
var bannedClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// randConstructors are the package-level math/rand functions that
// build seeded generators rather than drawing from the global source.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

// NewNondeterminism builds the nondeterminism rule.
func NewNondeterminism() *Analyzer {
	return &Analyzer{
		Name: "nondeterminism",
		Doc:  "forbid wall clocks, global math/rand, and map-iteration-ordered output in the deterministic packages",
		Run:  runNondet,
	}
}

func runNondet(p *Pass) {
	if !isDeterministic(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := callee(p.Info(), call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if recvOf(fn) != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are seeded
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedClockFuncs[fn.Name()] {
					p.Report(call.Pos(),
						"wall-clock call time."+fn.Name()+" in deterministic package "+lastSegment(p.Pkg.Path),
						"inject the timestamp from the caller; the modeling packages must be bit-deterministic")
				}
			case "math/rand", "math/rand/v2":
				if !randConstructors[fn.Name()] {
					p.Report(call.Pos(),
						"global math/rand draw rand."+fn.Name()+" in deterministic package "+lastSegment(p.Pkg.Path),
						"draw from a seeded *rand.Rand (recipedb.Fork or rand.New(rand.NewSource(seed)))")
				}
			}
			return true
		})
		// Map-iteration checks need the enclosing function for the
		// later-sort search, so walk declarations rather than the file.
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapRanges(p, fd)
			}
		}
	}
}

// checkMapRanges flags map iterations in fd whose order leaks into
// output: direct writes/sends inside the body, or appends to an outer
// slice that is never sorted after the loop.
func checkMapRanges(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info().Types[rs.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		var appended []*types.Var // outer slices appended to in the body
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.SendStmt:
				p.Report(m.Pos(),
					"channel send under map iteration: map order becomes delivery order",
					"iterate sorted keys instead")
			case *ast.CallExpr:
				if isEmitCall(p.Info(), m) {
					p.Report(m.Pos(),
						"output written under map iteration: map order becomes output order",
						"collect and sort keys, then iterate the sorted slice")
				}
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					if i >= len(m.Lhs) {
						break
					}
					if v := appendTarget(p.Info(), m.Lhs[i], rhs); v != nil && v.Pos() < rs.Pos() {
						appended = append(appended, v)
					}
				}
			}
			return true
		})
		for _, v := range appended {
			if !sortedAfter(p.Info(), fd.Body, v, rs.End()) {
				p.Report(rs.Pos(),
					"append to "+v.Name()+" under map iteration without a later sort",
					"sort "+v.Name()+" after the loop (sort.* / slices.Sort*) or iterate sorted keys")
			}
		}
		return true
	})
}

// isEmitCall reports whether the call writes to an output stream:
// fmt print functions or Write/Encode-style methods.
func isEmitCall(info *types.Info, call *ast.CallExpr) bool {
	fn := callee(info, call)
	if fn == nil {
		return false
	}
	if recvOf(fn) != nil {
		switch fn.Name() {
		case "Write", "WriteString", "WriteByte", "WriteRune", "Encode":
			return true
		}
		return false
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
			return true
		}
	}
	return false
}

// appendTarget returns the variable v when the assignment element is
// `v = append(v, ...)` with v a plain identifier; nil otherwise.
func appendTarget(info *types.Info, lhs, rhs ast.Expr) *types.Var {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return nil
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := info.Uses[fun].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	v, _ := info.Uses[id].(*types.Var)
	if v == nil {
		v, _ = info.Defs[id].(*types.Var)
	}
	return v
}

// sortedAfter reports whether body contains, after pos, a sort or
// slices call that mentions v — the "collect then sort" idiom that
// makes a map-order append deterministic.
func sortedAfter(info *types.Info, body *ast.BlockStmt, v *types.Var, pos token.Pos) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := callee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if path := fn.Pkg().Path(); path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && info.Uses[id] == v {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
