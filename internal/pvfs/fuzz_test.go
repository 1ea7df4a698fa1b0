package pvfs

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/xdr"
)

// fuzzTargets instantiates every PVFS2 wire type once: each distinct request
// type of procTable in table order, then the replies and the parts they
// embed (DistParams, Handle), which the table does not list.  The order is
// fixed so a fuzz input's selector byte is stable across runs.
func fuzzTargets() []func() xdr.Codec {
	var out []func() xdr.Codec
	seen := map[reflect.Type]bool{}
	for _, row := range procTable {
		if row.req == nil || seen[reflect.TypeOf(row.req())] {
			continue
		}
		seen[reflect.TypeOf(row.req())] = true
		out = append(out, func() xdr.Codec { return row.req().(xdr.Codec) })
	}
	return append(out,
		func() xdr.Codec { return &ErrnoRep{} },
		func() xdr.Codec { return &LookupRep{} },
		func() xdr.Codec { return &CreateRep{} },
		func() xdr.Codec { return &MkdirRep{} },
		func() xdr.Codec { return &ReadDirRep{} },
		func() xdr.Codec { return &GetAttrRep{} },
		func() xdr.Codec { return &PlacementRep{} },
		func() xdr.Codec { return &IOReadRep{} },
		func() xdr.Codec { return &IOWriteRep{} },
		func() xdr.Codec { return &IOGetSizeRep{} },
		func() xdr.Codec { return &DistParams{} },
		func() xdr.Codec { return new(Handle) },
	)
}

// fuzzSelector returns the selector byte of msg's type among targets.
func fuzzSelector(tb testing.TB, targets []func() xdr.Codec, msg any) byte {
	tb.Helper()
	for i, ctor := range targets {
		if reflect.TypeOf(ctor()) == reflect.TypeOf(msg) {
			return byte(i)
		}
	}
	tb.Fatalf("%T is not a fuzz target", msg)
	return 0
}

// TestFuzzTargetsComplete: every type of the package source with a wire
// shape (an XDR method) is a fuzz target, exactly once, so a new reply type
// cannot go unfuzzed.
func TestFuzzTargetsComplete(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	decoders := map[string]bool{}
	for name, f := range pkgs["pvfs"].Files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "XDR" {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			decoders[recv.(*ast.Ident).Name] = true
		}
	}
	if len(decoders) == 0 {
		t.Fatal("found no XDR methods in the package source")
	}
	targets := map[string]int{}
	for _, ctor := range fuzzTargets() {
		targets[reflect.TypeOf(ctor()).Elem().Name()]++
	}
	for name := range decoders {
		if targets[name] != 1 {
			t.Errorf("%s has an XDR method and is a fuzz target %d times, want once", name, targets[name])
		}
	}
	for name := range targets {
		if !decoders[name] {
			t.Errorf("fuzz target %s has no XDR method in the package source", name)
		}
	}
}

// FuzzDecodeWireTypes decodes arbitrary frames into every PVFS2 wire type
// (selected by the first input byte).  Truncated or oversized frames must
// return errors — never panic or balloon allocations — and any frame that
// does decode must re-encode canonically (encode → decode → encode is a
// fixed point).  Seeds come from the xdr_test.go round-trip corpus.
func FuzzDecodeWireTypes(f *testing.F) {
	targets := fuzzTargets()
	seed := func(m xdr.Codec) { f.Add(fuzzSelector(f, targets, m), xdr.Encode(m)) }
	seed(&LookupRep{Errno: 2, Handle: 7, IsDir: true, Size: -1,
		Dist: DistParams{StripeSize: 1 << 20, Servers: serverIDs(6)}})
	seed(&CreateRep{Handle: 9, Dist: DistParams{StripeSize: 2 << 20, Servers: serverIDs(3)}})
	seed(&ReadDirRep{Names: []string{"a", "bb", "ccc"}})
	seed(&GetAttrRep{Size: 1 << 40, Change: 99})
	seed(&PlacementRep{Data: 12, Dist: DistParams{StripeSize: 1 << 20, Servers: []uint32{4, 2}, Copies: 2}})
	seed(&IOReadRep{Data: payload.Real([]byte("xyz")), Eof: true})
	seed(&IOWriteArgs{Handle: 5, Off: 64, Data: payload.Real([]byte("data")), Sync: true})
	seed(&RenameHArgs{Dir: 4, Src: "a", Dst: "b"})
	f.Add(fuzzSelector(f, targets, &ReadDirRep{}), []byte{0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}) // hostile name count
	f.Add(fuzzSelector(f, targets, &IOReadRep{}), []byte{0, 0, 0, 0, 0x7f, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, sel byte, data []byte) {
		ctor := targets[int(sel)%len(targets)]
		msg := ctor()
		if err := xdr.Decode(data, msg); err != nil {
			return // malformed frames must error out cleanly
		}
		re := xdr.Encode(msg)
		msg2 := ctor()
		if err := xdr.Decode(re, msg2); err != nil {
			t.Fatalf("%T: re-encoded frame failed to decode: %v", msg, err)
		}
		if !bytes.Equal(re, xdr.Encode(msg2)) {
			t.Fatalf("%T: encode/decode/encode is not a fixed point", msg)
		}
	})
}
