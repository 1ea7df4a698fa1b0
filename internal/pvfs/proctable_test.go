package pvfs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store/wal"
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

// TestEveryProcedureAnswersACrashedStoreAsDown: a request whose store has
// crashed under it is answered with rpc.StatusDown by every procedure of
// both services — the one check in each server's Handle reads every reply
// type's status word — so no crash reaches a caller as EIO.
func TestEveryProcedureAnswersACrashedStoreAsDown(t *testing.T) {
	const obj, fresh Handle = 7, 8
	daemonStore, nsStore := wal.New(wal.Config{Name: "io"}), wal.New(wal.Config{Name: "mds"})
	daemon := NewStorageServer(StorageConfig{Store: daemonStore})
	meta := NewMetaServer(MetaConfig{Store: nsStore})
	if e := daemonCreate(daemon, obj); e != fserr.OK {
		t.Fatalf("IO-CREATE: %v", e)
	}
	daemonStore.Crash()
	nsStore.Crash()
	for i, row := range procTable {
		if row.req == nil {
			continue
		}
		// Storage requests name an object the daemon knows (a create, one
		// it does not), so they reach the store rather than answer Stale.
		req := row.req()
		if h := reflect.ValueOf(req).Elem().FieldByName("Handle"); row.service == ServiceIO && h.IsValid() {
			h.SetUint(uint64(obj))
			if uint32(i) == ProcIOCreate {
				h.SetUint(uint64(fresh))
			}
		}
		handle := meta.Handle
		if row.service == ServiceIO {
			handle = daemon.Handle
		}
		if rep, status := handle(&rpc.Ctx{}, uint32(i), req); status != rpc.StatusDown {
			t.Errorf("%s on a crashed store answered %v %+v, want rpc.StatusDown", row.name, status, rep)
		}
	}
}
