package pvfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// procConstants evaluates the package's Proc* constants from its source:
// each block is `iota + base`, so a literal, iota and + are the whole
// expression language.
func procConstants(t *testing.T) map[string]uint32 {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var eval func(e ast.Expr, iota int) int
	eval = func(e ast.Expr, iota int) int {
		switch e := e.(type) {
		case *ast.BasicLit:
			v, err := strconv.Atoi(e.Value)
			if err != nil {
				t.Fatal(err)
			}
			return v
		case *ast.Ident:
			if e.Name == "iota" {
				return iota
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD {
				return eval(e.X, iota) + eval(e.Y, iota)
			}
		}
		t.Fatalf("procedure constant uses an expression this test cannot evaluate: %T", e)
		return 0
	}
	out := map[string]uint32{}
	for _, f := range pkgs["pvfs"].Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			var expr ast.Expr // an omitted expression repeats the previous one
			for i, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				if len(vs.Values) > 0 {
					expr = vs.Values[0]
				}
				if name := vs.Names[0].Name; strings.HasPrefix(name, "Proc") {
					out[name] = uint32(eval(expr, i))
				}
			}
		}
	}
	return out
}

// TestProcTableComplete: a procedure of either service is declared in
// procTable and nowhere else, so the table has to be whole.  Every Proc*
// constant has its row (the array index makes it at most one) and every row
// its constant, names are unique and no declared procedure renders as
// proc-N (ProcPlacementH did, when the names were a switch of their own),
// and each service's registry decodes exactly its rows' requests.
func TestProcTableComplete(t *testing.T) {
	consts := procConstants(t)
	if len(consts) == 0 {
		t.Fatal("found no Proc* constants in the package source")
	}
	for name, proc := range consts {
		if int(proc) >= len(procTable) || procTable[proc].req == nil {
			t.Errorf("%s = %d has no row in procTable", name, proc)
		}
		if got := ProcName(proc); strings.HasPrefix(got, "proc-") {
			t.Errorf("%s renders as %q", name, got)
		}
	}
	rows := 0
	names := map[string]int{}
	meta, io := MetaRegistry(), IORegistry()
	for i, row := range procTable {
		proc := uint32(i)
		if row.req == nil {
			if row.name != "" || row.service != "" {
				t.Errorf("row %d (%q) is half-filled", proc, row.name)
			}
			if meta.New(proc) != nil || io.New(proc) != nil {
				t.Errorf("procedure %d is registered without a row", proc)
			}
			continue
		}
		rows++
		if prev, dup := names[row.name]; dup || row.name == "" {
			t.Errorf("row %d: name %q is empty or also row %d's", proc, row.name, prev)
		}
		names[row.name] = i
		if got := ProcName(proc); got != row.name {
			t.Errorf("ProcName(%d) = %q, want the row's %q", proc, got, row.name)
		}
		own, other := meta, io
		switch row.service {
		case ServiceMeta:
		case ServiceIO:
			own, other = io, meta
		default:
			t.Errorf("%s: unknown service %q", row.name, row.service)
			continue
		}
		if got, want := reflect.TypeOf(own.New(proc)), reflect.TypeOf(row.req()); got != want {
			t.Errorf("%s: the %s registry decodes %v, the row says %v", row.name, row.service, got, want)
		}
		if other.New(proc) != nil {
			t.Errorf("%s is also registered with the other service", row.name)
		}
	}
	if rows != len(consts) {
		t.Errorf("procTable has %d rows for %d Proc* constants", rows, len(consts))
	}
	if got := ProcName(uint32(len(procTable))); got != "proc-"+strconv.Itoa(len(procTable)) {
		t.Errorf("an undeclared procedure renders as %q, want it numeric", got)
	}
}
