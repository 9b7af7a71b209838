package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// TestObjectKey pins the stable naming scheme the collective tables are
// keyed by.
func TestObjectKey(t *testing.T) {
	pkg := types.NewPackage("example.com/keys", "keys")
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	free := types.NewFunc(token.NoPos, pkg, "Helper", sig)
	pkg.Scope().Insert(free)

	named := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "T", nil), types.NewStruct(nil, nil), nil)
	pkg.Scope().Insert(named.Obj())
	recv := types.NewVar(token.NoPos, pkg, "t", types.NewPointer(named))
	msig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
	method := types.NewFunc(token.NoPos, pkg, "Do", msig)

	if k, ok := ObjectKey(free); !ok || k != "Helper" {
		t.Errorf("free function key = %q, %v; want Helper, true", k, ok)
	}
	if k, ok := ObjectKey(method); !ok || k != "T.Do" {
		t.Errorf("method key = %q, %v; want T.Do, true", k, ok)
	}
	local := types.NewVar(token.NoPos, nil, "x", types.Typ[types.Int])
	if _, ok := ObjectKey(local); ok {
		t.Error("package-less object must have no key")
	}
}
