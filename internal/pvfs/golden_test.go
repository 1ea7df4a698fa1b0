package pvfs

import (
	"encoding/hex"
	"reflect"
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// wireMsg is what every PVFS2 message is: encodable and decodable.
type wireMsg interface {
	xdr.Marshaler
	xdr.Unmarshaler
}

// goldenWire pins the bytes of one filled-in value of every PVFS2 message:
// each request registered in MetaRegistry/IORegistry (proc != 0) and every
// reply.  The simulated fabric charges WireSizeOf(args) per call, so a
// changed encoding moves virtual time in every figure; the hex column was
// captured before the single-field messages were folded onto shared shapes
// and must never be edited by a refactor.
var goldenWire = []struct {
	name string
	proc uint32 // registry proc the request decodes under; 0 for replies
	msg  wireMsg
	hex  string
}{
	// ---- metadata service, path procedures ----
	{"LookupArgs", ProcLookup, &LookupArgs{Path: "/dir/file"},
		"000000092f6469722f66696c65000000"},
	{"LookupRep", 0, &LookupRep{Errno: fserr.NoEnt, Handle: 0x0102030405060708, IsDir: true, Size: -1,
		Dist: DistParams{StripeSize: 2 << 20, NumServers: 3, Servers: []uint32{4, 5, 6}, Copies: 1},
		Data: 1<<48 + 9},
		"00000001010203040506070800000001ffffffffffffffff0000000000200000" +
			"0000000300000003000000040000000500000006000000010001000000000009"},
	{"CreateArgs", ProcCreate, &CreateArgs{Path: "/a"},
		"000000022f610000"},
	{"CreateRep", 0, &CreateRep{Errno: fserr.Exist, Handle: 11,
		Dist: DistParams{StripeSize: 64 << 10, NumServers: 6, Copies: 2}, Data: 11},
		"00000002000000000000000b000000000001000000000006000000000000000200" +
			"0000000000000b"},
	{"RemoveArgs", ProcRemove, &RemoveArgs{Path: "/dir/"},
		"000000052f6469722f000000"},
	{"RemoveRep", 0, &RemoveRep{Errno: fserr.NotEmpty},
		"00000005"},
	{"MkdirArgs", ProcMkdir, &MkdirArgs{Path: "/d"},
		"000000022f640000"},
	{"MkdirRep", 0, &MkdirRep{Errno: fserr.NotDir, Handle: 12},
		"00000004000000000000000c"},
	{"ReadDirArgs", ProcReadDir, &ReadDirArgs{Path: "/"},
		"000000012f000000"},
	{"ReadDirRep", 0, &ReadDirRep{Errno: fserr.IO, Names: []string{"a", "bb", "ccccc"}},
		"0000000800000003000000016100000000000002626200000000000563636363" +
			"63000000"},
	{"GetAttrArgs", ProcGetAttr, &GetAttrArgs{Handle: 13},
		"000000000000000d"},
	{"GetAttrRep", 0, &GetAttrRep{Errno: fserr.Stale, IsDir: true, Size: 1 << 40, Change: 99},
		"000000070000000100000100000000000000000000000063"},
	{"TruncateArgs", ProcTruncate, &TruncateArgs{Handle: 14, Size: 4097},
		"000000000000000e0000000000001001"},
	{"TruncateRep", 0, &TruncateRep{Errno: fserr.Inval},
		"00000006"},

	// ---- metadata service, handle procedures ----
	{"DirOpArgs/lookup", ProcLookupH, &DirOpArgs{Dir: 1, Name: "file"},
		"00000000000000010000000466696c65"},
	{"DirOpArgs/create", ProcCreateH, &DirOpArgs{Dir: 2, Name: "f"},
		"00000000000000020000000166000000"},
	{"DirOpArgs/mkdir", ProcMkdirH, &DirOpArgs{Dir: 3, Name: "dd"},
		"00000000000000030000000264640000"},
	{"DirOpArgs/remove", ProcRemoveH, &DirOpArgs{Dir: 4, Name: "ggg"},
		"00000000000000040000000367676700"},
	{"RenameHArgs", ProcRenameH, &RenameHArgs{Dir: 5, Src: "old", Dst: "newer"},
		"0000000000000005000000036f6c6400000000056e65776572000000"},
	{"ReadDirHArgs", ProcReadDirH, &ReadDirHArgs{15},
		"000000000000000f"},
	{"PlacementHArgs", ProcPlacementH, &PlacementHArgs{Handle: 16},
		"0000000000000010"},
	{"PlacementRep", 0, &PlacementRep{Errno: fserr.Corrupt, Data: 1<<48 + 1,
		Dist: DistParams{StripeSize: 1 << 20, NumServers: 2, Servers: []uint32{7, 9}}},
		"00000009000100000000000100000000001000000000000200000002000000070" +
			"000000900000000"},

	// ---- storage I/O service ----
	{"IOReadArgs", ProcIORead, &IOReadArgs{Handle: 17, Off: 65536, Len: 4096, WantReal: true},
		"00000000000000110000000000010000000000000000100000000001"},
	{"IOReadRep/real", 0, &IOReadRep{Errno: fserr.OK, Data: payload.Real([]byte("xyz")), Eof: true,
		Sum: 0xDEADBEEF, HasSum: true},
		"000000000000000378797a0000000001deadbeef00000001"},
	{"IOReadRep/synthetic", 0, &IOReadRep{Data: payload.Synthetic(6)},
		"00000000000000060000000000000000000000000000000000000000"},
	{"IOWriteArgs", ProcIOWrite, &IOWriteArgs{Handle: 18, Off: 123, Data: payload.Real([]byte("data!")), Sync: true},
		"0000000000000012000000000000007b00000005646174612100000000000001"},
	{"IOWriteRep", 0, &IOWriteRep{Errno: fserr.Stale, ObjSize: 1 << 33},
		"000000070000000200000000"},
	{"IOCreateArgs", ProcIOCreate, &IOCreateArgs{Handle: 19},
		"0000000000000013"},
	{"IOCreateRep", 0, &IOCreateRep{Errno: fserr.Exist},
		"00000002"},
	{"IORemoveArgs", ProcIORemove, &IORemoveArgs{Handle: 20},
		"0000000000000014"},
	{"IORemoveRep", 0, &IORemoveRep{Errno: fserr.NoEnt},
		"00000001"},
	{"IOGetSizeArgs", ProcIOGetSize, &IOGetSizeArgs{Handle: 21},
		"0000000000000015"},
	{"IOGetSizeRep", 0, &IOGetSizeRep{Errno: fserr.IO, Size: 777, Change: 1 << 63},
		"0000000800000000000003098000000000000000"},
	{"IOFlushArgs", ProcIOFlush, &IOFlushArgs{Handle: 22},
		"0000000000000016"},
	{"IOFlushRep", 0, &IOFlushRep{Errno: fserr.Corrupt},
		"00000009"},
	{"IOTruncateArgs", ProcIOTruncate, &IOTruncateArgs{Handle: 23, ObjSize: 1 << 20},
		"00000000000000170000000000100000"},
	{"IOTruncateRep", 0, &IOTruncateRep{Errno: fserr.IsDir},
		"00000003"},
}

// TestGoldenWireEncoding holds every PVFS2 message to its golden bytes, in
// both directions: the value encodes to them (and WireSizeOf agrees with
// the length the fabric would charge), and they decode — into the type the
// service registry builds for the proc — to a value that encodes to them
// again.
func TestGoldenWireEncoding(t *testing.T) {
	meta, io := MetaRegistry(), IORegistry()
	covered := make(map[uint32]bool)
	for _, g := range goldenWire {
		enc := xdr.Marshal(g.msg)
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("%s encodes to\n  %s\nwant\n  %s", g.name, got, g.hex)
			continue
		}
		if got := rpc.WireSizeOf(g.msg); got != int64(len(enc)) {
			t.Errorf("%s: WireSizeOf %d, encoding is %d bytes", g.name, got, len(enc))
		}
		fresh := reflect.New(reflect.TypeOf(g.msg).Elem()).Interface().(wireMsg)
		if g.proc != 0 {
			covered[g.proc] = true
			reg := meta
			if g.proc >= ProcIORead {
				reg = io
			}
			made := reg.New(g.proc)
			if reflect.TypeOf(made) != reflect.TypeOf(g.msg) {
				t.Errorf("%s: registry builds %T for proc %d, golden row is %T", g.name, made, g.proc, g.msg)
				continue
			}
			fresh = made.(wireMsg)
		}
		if err := xdr.Unmarshal(enc, fresh); err != nil {
			t.Errorf("%s: decode of golden bytes: %v", g.name, err)
			continue
		}
		// Distinct field values make re-encoding a full check of the
		// decoder: a swapped or dropped field cannot reproduce the bytes.
		if got := hex.EncodeToString(xdr.Marshal(fresh)); got != g.hex {
			t.Errorf("%s: golden bytes decode to %+v, which re-encodes to\n  %s", g.name, fresh, got)
		}
	}
	for _, proc := range []uint32{ProcLookup, ProcCreate, ProcRemove, ProcMkdir, ProcReadDir,
		ProcGetAttr, ProcTruncate, ProcLookupH, ProcCreateH, ProcMkdirH, ProcRemoveH, ProcRenameH,
		ProcReadDirH, ProcPlacementH, ProcIORead, ProcIOWrite, ProcIOCreate, ProcIORemove,
		ProcIOGetSize, ProcIOFlush, ProcIOTruncate} {
		if !covered[proc] {
			t.Errorf("no golden row for registered proc %d", proc)
		}
	}
}
