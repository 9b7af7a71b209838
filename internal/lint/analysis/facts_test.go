package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

type tFact struct{ N int }

func (*tFact) AFact() {}

func newTestPkg(t *testing.T) (*types.Func, *types.Func) {
	t.Helper()
	pkg := types.NewPackage("example.com/facts", "facts")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	free := types.NewFunc(token.NoPos, pkg, "Helper", sig)
	pkg.Scope().Insert(free)

	named := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "T", nil), types.NewStruct(nil, nil), nil)
	pkg.Scope().Insert(named.Obj())
	recv := types.NewVar(token.NoPos, pkg, "t", types.NewPointer(named))
	msig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
	method := types.NewFunc(token.NoPos, pkg, "Do", msig)
	return free, method
}

// TestObjectKey pins the stable naming scheme facts are keyed by.
func TestObjectKey(t *testing.T) {
	free, method := newTestPkg(t)
	if k, ok := ObjectKey(free); !ok || k != "Helper" {
		t.Errorf("free function key = %q, %v; want Helper, true", k, ok)
	}
	if k, ok := ObjectKey(method); !ok || k != "T.Do" {
		t.Errorf("method key = %q, %v; want T.Do, true", k, ok)
	}
	local := types.NewVar(token.NoPos, nil, "x", types.Typ[types.Int])
	if _, ok := ObjectKey(local); ok {
		t.Error("package-less object must not be exportable")
	}
}

// TestFactsRoundTrip drives the path the driver takes between two
// packages: export into one set, Merge into a dependent's import set,
// import there.
func TestFactsRoundTrip(t *testing.T) {
	free, method := newTestPkg(t)

	out := NewFacts()
	out.ExportObject(free, &tFact{N: 7})
	out.ExportObject(method, &tFact{N: 11})

	in := NewFacts()
	in.Merge(out)
	if in.Len() != 2 {
		t.Fatalf("merged %d facts; want 2", in.Len())
	}

	var f tFact
	if !in.ImportObject(free, &f) || f.N != 7 {
		t.Errorf("Helper fact = %+v, want N=7", f)
	}
	if !in.ImportObject(method, &f) || f.N != 11 {
		t.Errorf("T.Do fact = %+v, want N=11", f)
	}
	otherPkg := types.NewPackage("example.com/other", "other")
	other := types.NewFunc(token.NoPos, otherPkg, "Helper", types.NewSignatureType(nil, nil, nil, nil, nil, false))
	otherPkg.Scope().Insert(other)
	if in.ImportObject(other, &f) {
		t.Error("fact imported for a package that exported none")
	}
	// ImportObject copies out: writing to the copy must not reach the set
	// other workers read.
	f.N = 99
	var again tFact
	if !out.ImportObject(method, &again) || again.N != 11 {
		t.Errorf("stored fact changed through an imported copy: %+v", again)
	}
}

// TestMergeTransitive mirrors the re-export step: a dependent sees its
// transitive closure through direct imports alone.
func TestMergeTransitive(t *testing.T) {
	free, method := newTestPkg(t)

	base := NewFacts()
	base.ExportObject(free, &tFact{N: 3})
	mid := NewFacts()
	mid.Merge(base)
	mid.ExportObject(method, &tFact{N: 5})

	top := NewFacts()
	top.Merge(mid)
	var f tFact
	if !top.ImportObject(free, &f) || f.N != 3 {
		t.Error("fact from the transitive dep lost in the merge/re-export hop")
	}
	if base.Len() != 1 {
		t.Errorf("merging out of a published set wrote to it: %d facts, want 1", base.Len())
	}
}
