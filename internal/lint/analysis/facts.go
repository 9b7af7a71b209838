package analysis

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a unit of modular analysis: a claim an analyzer proves about
// one package (or one of its package-level objects) that dependent
// packages may consult without re-analyzing the source. Facts are how the
// suite sees through helper functions — collorder's CallsCollective fact,
// for instance, marks every function that (transitively) enters a
// collective, so a rank-guarded call to a helper three packages away is
// still caught.
//
// Fact types must be pointers to structs. Facts never leave the process:
// a driver worker publishes the *Facts of a finished package and the
// workers analyzing its dependents Merge from it. A published set is
// never written again and ImportObject copies the stored value out, so
// the hand-off needs no lock.
type Fact interface {
	// AFact is a marker method: it does nothing, but restricting the
	// interface to intentional implementations keeps arbitrary values out
	// of the fact store.
	AFact()
}

// ObjectKey names a package-level object the same way whether the package
// was type-checked from source or imported from export data: plain
// "Name" for package-scope functions, variables, types and constants,
// "Recv.Name" for methods of a named receiver type. Objects that are not
// package-level (locals, parameters, struct fields) are not exportable —
// a fact about them could never be resolved from another package's view
// of the import.
func ObjectKey(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := FuncSig(fn).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return n.Obj().Name() + "." + fn.Name(), true
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "", false
	}
	return obj.Name(), true
}

// factKey identifies one fact: the package, the object within it, and the
// concrete fact type (one analyzer may attach several kinds of fact to the
// same object).
type factKey struct {
	pkg string
	obj string
	typ reflect.Type
}

// A Facts set holds the facts exported by one package, or the merged
// facts of a package's dependency closure.
type Facts struct {
	m map[factKey]Fact
}

// NewFacts returns an empty fact set.
func NewFacts() *Facts {
	return &Facts{m: map[factKey]Fact{}}
}

// Len reports the number of stored facts.
func (f *Facts) Len() int {
	if f == nil {
		return 0
	}
	return len(f.m)
}

// ExportObject records fact for obj. It panics if obj is not exportable
// (not package-level) — analyzers must only export facts other packages
// can resolve.
func (f *Facts) ExportObject(obj types.Object, fact Fact) {
	key, ok := ObjectKey(obj)
	if !ok {
		panic(fmt.Sprintf("analysis: fact %T exported for non-package-level object %v", fact, obj))
	}
	f.m[factKey{pkg: obj.Pkg().Path(), obj: key, typ: reflect.TypeOf(fact)}] = fact
}

// ImportObject copies the stored fact for obj of fact's concrete type
// into fact, reporting whether one existed.
func (f *Facts) ImportObject(obj types.Object, fact Fact) bool {
	if f == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	key, ok := ObjectKey(obj)
	if !ok {
		return false
	}
	stored, ok := f.m[factKey{pkg: obj.Pkg().Path(), obj: key, typ: reflect.TypeOf(fact)}]
	if !ok {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Merge copies every fact in other into f (other wins on key collisions,
// which cannot happen between distinct packages).
func (f *Facts) Merge(other *Facts) {
	if other == nil {
		return
	}
	for k, v := range other.m {
		f.m[k] = v
	}
}
