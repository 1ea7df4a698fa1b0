package nfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"dpnfs/internal/fserr"
)

// opNumConstants reads the package's OpNum* constants from its source.
func opNumConstants(t *testing.T) map[string]uint32 {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]uint32{}
	for _, f := range pkgs["nfs"].Files {
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 || !strings.HasPrefix(vs.Names[0].Name, "OpNum") {
				return true
			}
			v, err := strconv.ParseUint(vs.Values[0].(*ast.BasicLit).Value, 10, 32)
			if err != nil {
				t.Fatalf("%s: %v", vs.Names[0].Name, err)
			}
			out[vs.Names[0].Name] = uint32(v)
			return true
		})
	}
	return out
}

// TestOpTableComplete: an operation is declared in opTable and nowhere
// else, so the table has to be whole.  Every OpNum* constant has its row
// (the array index makes it at most one) and every row its constant, names
// are unique and render through opName, the constructors build the types
// whose Num() is the row's number with the status they are given, a role
// comes with the status answered in its absence, and the replay cache's
// compoundIdempotent says what the table says.
func TestOpTableComplete(t *testing.T) {
	consts := opNumConstants(t)
	if len(consts) == 0 {
		t.Fatal("found no OpNum* constants in the package source")
	}
	for name, n := range consts {
		if !known(n) {
			t.Errorf("%s = %d has no row in opTable", name, n)
		}
	}
	rows := 0
	names := map[string]int{}
	for i, row := range opTable {
		n := uint32(i)
		if row.op == nil {
			if row.name != "" || row.res != nil {
				t.Errorf("row %d (%q) is half-filled", n, row.name)
			}
			continue
		}
		rows++
		if prev, dup := names[row.name]; dup || row.name == "" {
			t.Errorf("row %d: name %q is empty or also row %d's", n, row.name, prev)
		}
		names[row.name] = i
		if got := opName(n); got != row.name || strings.HasPrefix(got, "OP_") {
			t.Errorf("opName(%d) = %q, want the row's %q", n, got, row.name)
		}
		if got := row.op().Num(); got != n {
			t.Errorf("%s: op constructor builds op %d, want %d", row.name, got, n)
		}
		if res := row.res(fserr.Stale); res.Num() != n || res.Status() != fserr.Stale {
			t.Errorf("%s: result constructor builds %T (op %d, status %v), want op %d carrying the status", row.name, res, res.Num(), res.Status(), n)
		}
		if res := row.res(fserr.OK); res.Status() != fserr.OK {
			t.Errorf("%s: the empty result has status %v", row.name, res.Status())
		}
		if (row.needs == roleNone) != (row.absent == fserr.OK) {
			t.Errorf("%s: needs role %d but answers %v in its absence", row.name, row.needs, row.absent)
		}
		if got := compoundIdempotent([]Op{row.op()}); got != row.idempotent {
			t.Errorf("%s: compoundIdempotent = %v, table says %v", row.name, got, row.idempotent)
		}
	}
	if rows != len(consts) {
		t.Errorf("opTable has %d rows for %d OpNum* constants", rows, len(consts))
	}
	if strings.HasPrefix(opName(OpNumGetDevList), "OP_") || opName(999) != "OP_999" {
		t.Error("opName: declared ops render by name, undeclared ones numerically")
	}
	// One non-idempotent op makes the whole compound cacheable.
	if !compoundIdempotent([]Op{&OpPutFH{}, &OpRead{}}) || compoundIdempotent([]Op{&OpPutFH{}, &OpRead{}, &OpWrite{}}) {
		t.Error("compoundIdempotent: want true for PUTFH+READ, false once a WRITE joins")
	}
}
