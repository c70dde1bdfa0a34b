package analyzers

import (
	"go/ast"
	"go/types"
	"sort"
)

// Snapcover enforces snapshot completeness: for every struct that owns
// both a save method (Snapshot / SnapshotInto) and a restore method
// (Restore*), every field must be referenced in both directions — in the
// save path and in the restore path, where each path includes same-type
// methods called transitively (Restore → restore → restoreCore and the
// like). A field that is genuinely construction-time-immutable (geometry,
// wiring to sibling components, cached derived values) is annotated
// //packetlint:transient with a reason.
//
// This targets the snapshot-drift bug class directly: add a stateful
// field to cache.Cache and forget it in Restore, and warm-started trials
// stop being byte-identical to cold ones the first time the field's value
// matters — a divergence today's golden files only catch if the demo
// workload happens to exercise it.
var Snapcover = &Analyzer{
	Name: "snapcover",
	Doc: "every field of a Snapshot/Restore-owning struct must be " +
		"referenced by both the save and the restore path, or be " +
		"annotated //packetlint:transient",
	Run: runSnapcover,
}

// saveRoots and restore-root detection define the two directions. A
// method named "Restore" or prefixed "Restore" (RestoreFrom, ...) roots
// the restore direction.
var saveRoots = map[string]bool{"Snapshot": true, "SnapshotInto": true}

func isRestoreRoot(name string) bool {
	return name == "Restore" || (len(name) > len("Restore") && name[:len("Restore")] == "Restore")
}

func runSnapcover(pass *Pass) error {
	// Gather every method declaration grouped by receiver base type.
	methods := make(map[*types.Named]map[string]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) != 1 || fd.Body == nil {
				continue
			}
			named := receiverNamed(pass, fd)
			if named == nil {
				continue
			}
			m := methods[named]
			if m == nil {
				m = make(map[string]*ast.FuncDecl)
				methods[named] = m
			}
			m[fd.Name.Name] = fd
		}
	}

	for named, m := range methods {
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var hasSave, hasRestore bool
		for name := range m {
			if saveRoots[name] {
				hasSave = true
			}
			if isRestoreRoot(name) {
				hasRestore = true
			}
		}
		if !hasSave || !hasRestore {
			continue
		}
		saved := fieldsReferenced(pass, named, m, func(n string) bool { return saveRoots[n] })
		restored := fieldsReferenced(pass, named, m, isRestoreRoot)
		checkCoverage(pass, named, st, saved, restored)
	}
	return nil
}

// receiverNamed resolves a method declaration's receiver base type.
func receiverNamed(pass *Pass, fd *ast.FuncDecl) *types.Named {
	names := fd.Recv.List[0].Names
	var t types.Type
	if len(names) == 1 {
		obj := pass.TypesInfo.Defs[names[0]]
		if obj == nil {
			return nil
		}
		t = obj.Type()
	} else {
		// Unnamed receiver: resolve via the receiver type expression.
		t = pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
	}
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// fieldsReferenced computes the set of named's direct fields referenced
// anywhere in the direction rooted at the methods selected by root,
// closed over same-type method calls.
func fieldsReferenced(pass *Pass, named *types.Named, methods map[string]*ast.FuncDecl, root func(string) bool) map[*types.Var]bool {
	// Transitive closure over same-receiver calls.
	inDir := make(map[string]bool)
	var queue []string
	for name := range methods {
		if root(name) {
			inDir[name] = true
			queue = append(queue, name)
		}
	}
	// Canonical traversal order (and mapemit-clean under self-analysis).
	sort.Strings(queue)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		fd := methods[name]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pass.TypesInfo.Selections[sel]
			if selection == nil || selection.Kind() != types.MethodVal {
				return true
			}
			recv := selection.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			rn, ok := recv.(*types.Named)
			if !ok || rn.Obj() != named.Obj() {
				return true
			}
			callee := sel.Sel.Name
			if _, local := methods[callee]; local && !inDir[callee] {
				inDir[callee] = true
				queue = append(queue, callee)
			}
			return true
		})
	}

	refs := make(map[*types.Var]bool)
	for name := range inDir {
		fd := methods[name]
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection := pass.TypesInfo.Selections[sel]
			if selection == nil || selection.Kind() != types.FieldVal {
				return true
			}
			// Only direct fields of the target struct count; promoted
			// selections through embedded fields have len(Index) > 1.
			if len(selection.Index()) != 1 {
				return true
			}
			recv := selection.Recv()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			rn, ok := recv.(*types.Named)
			if !ok || rn.Obj() != named.Obj() {
				return true
			}
			if v, ok := selection.Obj().(*types.Var); ok {
				refs[v] = true
			}
			return true
		})
	}
	return refs
}

func checkCoverage(pass *Pass, named *types.Named, st *types.Struct, saved, restored map[*types.Var]bool) {
	type miss struct {
		field *types.Var
		dirs  string
	}
	var misses []miss
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if pass.Transient(f.Pos()) {
			continue
		}
		inSave, inRestore := saved[f], restored[f]
		switch {
		case inSave && inRestore:
			continue
		case !inSave && !inRestore:
			misses = append(misses, miss{f, "either the Snapshot or the Restore path"})
		case !inSave:
			misses = append(misses, miss{f, "the Snapshot path"})
		default:
			misses = append(misses, miss{f, "the Restore path"})
		}
	}
	sort.Slice(misses, func(i, j int) bool { return misses[i].field.Pos() < misses[j].field.Pos() })
	for _, m := range misses {
		pass.Reportf(m.field.Pos(),
			"field %s.%s is not referenced in %s: snapshot drift breaks warm-start byte-identity (cover it, or mark //packetlint:transient <why> if construction-immutable)",
			named.Obj().Name(), m.field.Name(), m.dirs)
	}
}
