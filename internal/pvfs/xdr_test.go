package pvfs

import (
	"testing"
	"testing/quick"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// roundTrip encodes m and decodes into out, failing on any error.
func roundTrip(t *testing.T, m xdr.Marshaler, out xdr.Unmarshaler) {
	t.Helper()
	if err := xdr.Unmarshal(xdr.Marshal(m), out); err != nil {
		t.Fatalf("%T: %v", m, err)
	}
}

func TestAllMessageTypesRoundTrip(t *testing.T) {
	// Every wire type: encode, decode, compare the interesting fields.
	{
		var out LookupRep
		roundTrip(t, &LookupRep{Errno: fserr.NoEnt, Handle: 7, IsDir: true, Size: -1,
			Dist: DistParams{StripeSize: 1 << 20, NumServers: 6}}, &out)
		if out.Errno != fserr.NoEnt || out.Handle != 7 || !out.IsDir || out.Size != -1 ||
			out.Dist.NumServers != 6 {
			t.Fatalf("LookupRep: %+v", out)
		}
	}
	{
		var out CreateRep
		roundTrip(t, &CreateRep{Handle: 9, Dist: DistParams{StripeSize: 2 << 20, NumServers: 3}}, &out)
		if out.Handle != 9 || out.Dist.StripeSize != 2<<20 {
			t.Fatalf("CreateRep: %+v", out)
		}
	}
	{
		// DistParams.Copies rides at the end of the encoding; a dropped or
		// reordered field would silently flatten every replicated layout.
		var out CreateRep
		roundTrip(t, &CreateRep{Handle: 11, Dist: DistParams{
			StripeSize: 64 << 10, NumServers: 6, Copies: 2}}, &out)
		if out.Dist.Copies != 2 || out.Dist.NumServers != 6 {
			t.Fatalf("CreateRep with Copies: %+v", out)
		}
	}
	{
		// The optional payload checksum survives the wire in both states.
		var out IOReadRep
		roundTrip(t, &IOReadRep{Data: payload.Real([]byte("abc")), Sum: 0xDEADBEEF, HasSum: true}, &out)
		if out.Sum != 0xDEADBEEF || !out.HasSum {
			t.Fatalf("IOReadRep checksum: %+v", out)
		}
		roundTrip(t, &IOReadRep{Data: payload.Real([]byte("abc"))}, &out)
		if out.HasSum {
			t.Fatalf("IOReadRep phantom checksum: %+v", out)
		}
	}
	{
		var out ReadDirRep
		roundTrip(t, &ReadDirRep{Names: []string{"a", "bb", "ccc"}}, &out)
		if len(out.Names) != 3 || out.Names[2] != "ccc" {
			t.Fatalf("ReadDirRep: %+v", out)
		}
	}
	{
		var out GetAttrRep
		roundTrip(t, &GetAttrRep{Size: 1 << 40, Change: 99}, &out)
		if out.Size != 1<<40 || out.Change != 99 {
			t.Fatalf("GetAttrRep: %+v", out)
		}
	}
	{
		var out IOReadRep
		roundTrip(t, &IOReadRep{Data: payload.Real([]byte("xyz")), Eof: true}, &out)
		if string(out.Data.Bytes) != "xyz" || !out.Eof {
			t.Fatalf("IOReadRep: %+v", out)
		}
	}
	{
		var out IOWriteArgs
		roundTrip(t, &IOWriteArgs{Handle: 3, Off: 123, Data: payload.Real([]byte("w")), Sync: true}, &out)
		if out.Handle != 3 || out.Off != 123 || !out.Sync || string(out.Data.Bytes) != "w" {
			t.Fatalf("IOWriteArgs: %+v", out)
		}
	}
	{
		var out RenameHArgs
		roundTrip(t, &RenameHArgs{Dir: 4, Src: "old", Dst: "new"}, &out)
		if out.Dir != 4 || out.Src != "old" || out.Dst != "new" {
			t.Fatalf("RenameHArgs: %+v", out)
		}
	}
}

func TestBulkWireSizesMatchEncoding(t *testing.T) {
	w := &IOWriteArgs{Handle: 1, Off: 2, Data: payload.Real(make([]byte, 100)), Sync: true}
	if got, want := w.WireSize(), int64(len(xdr.Marshal(w))); got != want {
		t.Fatalf("IOWriteArgs WireSize %d != %d", got, want)
	}
	r := &IOReadRep{Data: payload.Real(make([]byte, 33)), Eof: true}
	if got, want := r.WireSize(), int64(len(xdr.Marshal(r))); got != want {
		t.Fatalf("IOReadRep WireSize %d != %d", got, want)
	}
}

// Property: every registered request constructor decodes what it encodes.
func TestPropertyRegistryDecodesOwnEncoding(t *testing.T) {
	f := func(h uint64, off int64, path string) bool {
		msgs := []xdr.Marshaler{
			&LookupArgs{Path: path},
			&CreateArgs{Path: path},
			&RemoveArgs{Path: path},
			&MkdirArgs{Path: path},
			&ReadDirArgs{Path: path},
			&GetAttrArgs{Handle: Handle(h)},
			&TruncateArgs{Handle: Handle(h), Size: off},
			&IOReadArgs{Handle: Handle(h), Off: off, Len: off / 2},
			&IOCreateArgs{Handle: Handle(h)},
			&IORemoveArgs{Handle: Handle(h)},
			&IOGetSizeArgs{Handle: Handle(h)},
			&IOFlushArgs{Handle: Handle(h)},
			&IOTruncateArgs{Handle: Handle(h), ObjSize: off},
			&DirOpArgs{Dir: Handle(h), Name: path},
			&ReadDirHArgs{Handle: Handle(h)},
		}
		for _, m := range msgs {
			out, ok := m.(xdr.Unmarshaler)
			if !ok {
				return false
			}
			// Decode into a fresh instance of the same type via the
			// registries, proving proc wiring matches the types.
			if err := xdr.Unmarshal(xdr.Marshal(m), out); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistriesCoverAllProcs(t *testing.T) {
	meta := MetaRegistry()
	for _, proc := range []uint32{ProcLookup, ProcCreate, ProcRemove, ProcMkdir,
		ProcReadDir, ProcGetAttr, ProcTruncate,
		ProcLookupH, ProcCreateH, ProcMkdirH, ProcRemoveH, ProcRenameH, ProcReadDirH} {
		if meta.New(proc) == nil {
			t.Errorf("meta registry missing proc %d", proc)
		}
	}
	io := IORegistry()
	for _, proc := range []uint32{ProcIORead, ProcIOWrite, ProcIOCreate,
		ProcIORemove, ProcIOGetSize, ProcIOFlush, ProcIOTruncate} {
		if io.New(proc) == nil {
			t.Errorf("io registry missing proc %d", proc)
		}
	}
	if meta.New(9999) != nil {
		t.Error("unknown proc should return nil")
	}
}

// TestMetaOverTCP drives the PVFS2 metadata server over a real socket,
// proving the registry plumbing works outside the simulation.
func TestMetaOverTCP(t *testing.T) {
	meta := NewMetaServer(MetaConfig{Dist: DistParams{StripeSize: 1 << 20, NumServers: 1}})
	srv, err := rpc.ListenTCP("127.0.0.1:0", MetaRegistry(), meta.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := rpc.DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ctx := &rpc.Ctx{}
	var mk MkdirRep
	if err := conn.Call(ctx, ProcMkdir, &MkdirArgs{Path: "/d"}, &mk); err != nil || mk.Errno != 0 {
		t.Fatalf("mkdir over TCP: %v %v", err, mk.Errno)
	}
	var look LookupRep
	if err := conn.Call(ctx, ProcLookup, &LookupArgs{Path: "/d"}, &look); err != nil {
		t.Fatal(err)
	}
	if look.Errno != 0 || !look.IsDir {
		t.Fatalf("lookup over TCP: %+v", look)
	}
}
