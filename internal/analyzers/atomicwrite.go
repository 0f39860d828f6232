// The atomicwrite rule. The durability story (PR 3/4) rests on one
// discipline: bytes that a resume depends on are fsync'd before any
// manifest references them, and whole-file artifacts are replaced
// atomically (temp file + fsync + rename + dir fsync — see
// checkpoint.WriteFileAtomic). A single raw os.WriteFile can silently
// void the crash-safety contract, so in the packages that persist
// durable artifacts (checkpoint, persist, quarantine, recipemine,
// snapshot):
//
//  1. os.WriteFile and os.Create are banned — both hand back a file
//     whose contents are not durable on close. Durable code opens
//     with os.OpenFile (the flags make the create/truncate intent
//     explicit) and fsyncs, or goes through WriteFileAtomic.
//  2. A (*os.File).Write/WriteString call must share a function with
//     an (*os.File).Sync call — writes without a visible fsync in the
//     same function are either missing their sync or belong behind
//     one of the fsynced sinks. (Cross-function disciplines carry a
//     justified //recipelint:allow.)

package analyzers

import (
	"go/ast"
	"go/types"
)

// NewAtomicwrite builds the atomicwrite rule.
func NewAtomicwrite() *Analyzer {
	return &Analyzer{
		Name: "atomicwrite",
		Doc:  "ban unsynced/non-atomic file writes in the durable packages (checkpoint, persist, quarantine, recipemine, snapshot)",
		Run:  runAtomicwrite,
	}
}

func runAtomicwrite(p *Pass) {
	if !isDurable(p.Pkg.Path) {
		return
	}
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDurableWrites(p, fd)
		}
	}
}

// checkDurableWrites applies both atomicwrite checks inside one
// function declaration.
func checkDurableWrites(p *Pass, fd *ast.FuncDecl) {
	syncs := containsFileSync(p.Info(), fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := callee(p.Info(), call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if recvOf(fn) == nil {
			if pkg := fn.Pkg().Path(); (pkg == "os" || pkg == "io/ioutil") &&
				(fn.Name() == "WriteFile" || fn.Name() == "Create") {
				p.Report(call.Pos(),
					pkg+"."+fn.Name()+" in durable package "+lastSegment(p.Pkg.Path),
					"use checkpoint.WriteFileAtomic, or os.OpenFile with explicit flags plus Sync")
			}
			return true
		}
		if !isOSFileRecv(fn) {
			return true
		}
		if (fn.Name() == "Write" || fn.Name() == "WriteString") && !syncs {
			p.Report(call.Pos(),
				"(*os.File)."+fn.Name()+" without a Sync in the same function (durable package "+lastSegment(p.Pkg.Path)+")",
				"fsync before the bytes matter: call f.Sync(), or write through WriteFileAtomic / the fsynced sinks")
		}
		return true
	})
}

// isOSFileRecv reports whether fn is a method on *os.File.
func isOSFileRecv(fn *types.Func) bool {
	recv := recvOf(fn)
	if recv == nil {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}

// containsFileSync reports whether body calls (*os.File).Sync.
func containsFileSync(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn := callee(info, call); fn != nil && fn.Name() == "Sync" && isOSFileRecv(fn) {
			found = true
		}
		return !found
	})
	return found
}
