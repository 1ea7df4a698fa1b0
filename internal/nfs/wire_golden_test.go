package nfs

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// goldenCompound pins the bytes of one filled-in value of every NFSv4.1
// operation and result type, of multi-op COMPOUND requests and replies, and
// of a LAYOUTGET result carrying a replicated layout.  The simulated fabric
// charges WireSizeOf per call, so a changed encoding moves virtual time in
// every figure; the hex column was captured from the hand-written encoders
// and must never be edited by a refactor.  Field values are distinct so a
// swapped or dropped field cannot reproduce the bytes.
var goldenCompound = []struct {
	name string
	msg  any // an Op, a Result, *CompoundArgs or *CompoundRep
	hex  string
}{
	// ---- operations ----
	{"OpPutRootFH", &OpPutRootFH{}, ""},
	{"OpPutFH", &OpPutFH{FH: 0x0102030405060708}, "0102030405060708"},
	{"OpLookup", &OpLookup{Name: "file"}, "0000000466696c65"},
	{"OpOpen", &OpOpen{Name: "new", Create: true}, "000000036e65770000000001"},
	{"OpClose", &OpClose{StateID: 0x1122334455667788}, "1122334455667788"},
	{"OpGetAttr", &OpGetAttr{}, ""},
	{"OpRead", &OpRead{StateID: 3, Off: 65536, Len: 4096, WantReal: true},
		"00000000000000030000000000010000000000000000100000000001"},
	{"OpWrite/real", &OpWrite{StateID: 4, Off: 123, Data: payload.Real([]byte("hello")), Stable: true},
		"0000000000000004000000000000007b0000000568656c6c6f00000000000001"},
	{"OpWrite/synthetic", &OpWrite{StateID: 5, Off: 1 << 20, Data: payload.Synthetic(6)},
		"0000000000000005000000000010000000000006000000000000000000000000"},
	{"OpWrite/block sums", &OpWrite{StateID: 6, Off: 1 << 16, Data: payload.Real([]byte("wxyz")),
		Blocks: store.BlockSums{Salt0: 1, Sums: []uint32{0x11223344}}},
		"00000000000000060000000000010000000000047778797a0000000200000000" +
			"000000010000000111223344"},
	{"OpWrite/stable block sums", &OpWrite{StateID: 7, Off: 2 << 16, Data: payload.Real([]byte("ab")), Stable: true,
		Blocks: store.BlockSums{Salt0: 3<<32 | 2, Sums: []uint32{0xDEADBEEF, 0x0BADF00D}}},
		"0000000000000007000000000002000000000002616200000000000300000003" +
			"0000000200000002deadbeef0badf00d"},
	{"OpCommit", &OpCommit{Off: 1 << 32, Len: 7}, "00000001000000000000000000000007"},
	{"OpCreate", &OpCreate{Name: "dir"}, "0000000364697200"},
	{"OpRemove", &OpRemove{Name: "gone"}, "00000004676f6e65"},
	{"OpRename", &OpRename{Src: "old", Dst: "newer"}, "000000036f6c6400000000056e65776572000000"},
	{"OpReadDir", &OpReadDir{}, ""},
	{"OpGetDevList", &OpGetDevList{}, ""},
	{"OpLayoutGet", &OpLayoutGet{}, ""},
	{"OpLayoutCommit", &OpLayoutCommit{NewSize: 1<<40 + 5}, "0000010000000005"},
	{"OpLayoutReturn", &OpLayoutReturn{}, ""},
	{"OpExchangeID", &OpExchangeID{ClientName: "client-1"}, "00000008636c69656e742d31"},
	{"OpCreateSession", &OpCreateSession{ClientID: 77, Slots: 64}, "000000000000004d00000040"},

	// ---- results ----
	{"ResPutRootFH", &ResPutRootFH{errnoOnly{fserr.NoEnt}}, "00000001"},
	{"ResPutFH", &ResPutFH{errnoOnly{fserr.Stale}}, "00000007"},
	{"ResLookup", &ResLookup{fhAttr{FH: 9, Attr: Attr{IsDir: true, Size: 4096, Change: 11}}},
		"000000000000000000000009000000010000000000001000000000000000000b"},
	{"ResOpen", &ResOpen{fhAttr{Errno: fserr.Exist, FH: 10, Attr: Attr{Size: 1 << 33, Change: 12}}, 13},
		"00000002000000000000000a000000000000000200000000000000000000000c" +
			"000000000000000d"},
	{"ResClose", &ResClose{errnoOnly{fserr.Inval}}, "00000006"},
	{"ResGetAttr", &ResGetAttr{Errno: fserr.IO, Attr: Attr{Size: 777, Change: 1 << 63}},
		"000000080000000000000000000003098000000000000000"},
	{"ResRead", &ResRead{Data: payload.Real([]byte("abcde")), Sum: 0x0A0B0C0D,
		Blocks: store.BlockSums{Salt0: 1<<40 | 9, Sums: []uint32{0xCAFEF00D}}},
		"00000000000000000000000561626364650000000a0b0c0d0000000200000100" +
			"0000000900000001cafef00d"},
	{"ResWrite", &ResWrite{Errno: fserr.Unavailable, Count: 5, NewSize: 128},
		"0000000a00000000000000050000000000000080"},
	{"ResCommit", &ResCommit{errnoOnly{fserr.Corrupt}}, "00000009"},
	{"ResCreate", &ResCreate{fhAttr{Errno: fserr.NotDir, FH: 14, Attr: Attr{IsDir: true, Change: 15}}},
		"00000004000000000000000e000000010000000000000000000000000000000f"},
	{"ResRemove", &ResRemove{errnoOnly{fserr.NotEmpty}}, "00000005"},
	{"ResRename", &ResRename{errnoOnly{fserr.IsDir}}, "00000003"},
	{"ResReadDir", &ResReadDir{Names: []string{"a", "bb", "ccccc"}},
		"0000000000000003000000016100000000000002626200000000000563636363" +
			"63000000"},
	{"ResGetDevList", &ResGetDevList{Devices: []pnfs.DeviceInfo{{ID: 1, Addr: "io0"}, {ID: 5, Addr: "10.0.0.2:2049"}}},
		"00000000000000020000000100000003696f3000000000050000000d31302e30" +
			"2e302e323a32303439000000"},
	{"ResLayoutGet/replicated", &ResLayoutGet{Layout: pnfs.FileLayout{
		Aggregation: pnfs.AggReplicated, Params: []int64{2, 1 << 20},
		Devices: []pnfs.DeviceID{0, 1, 2, 3}, FHs: []uint64{21, 22, 23, 24}, Direct: true}},
		"000000000000000a7265706c6963617465640000000000020000000000000002" +
			"0000000000100000000000040000000000000000000000150000000100000000" +
			"0000001600000002000000000000001700000003000000000000001800000001"},
	{"ResLayoutCommit", &ResLayoutCommit{errnoOnly{fserr.NotDir}}, "00000004"},
	{"ResLayoutReturn", &ResLayoutReturn{errnoOnly{fserr.Stale}}, "00000007"},
	{"ResExchangeID", &ResExchangeID{ClientID: 0xABCDEF}, "000000000000000000abcdef"},
	{"ResCreateSession", &ResCreateSession{Session: 99, Slots: 32}, "00000000000000000000006300000020"},

	// ---- whole compounds ----
	{"CompoundArgs", &CompoundArgs{Tag: "tag", Session: 5, Slot: 2, Seq: 17, Ops: []Op{
		&OpPutFH{FH: 6}, &OpWrite{StateID: 7, Off: 8, Data: payload.Real([]byte("xy")), Stable: true},
		&OpGetAttr{}, &OpLayoutCommit{NewSize: 10}}},
		"0000000374616700000000000000000500000002000000110000000400000016" +
			"0000000000000006000000260000000000000007000000000000000800000002" +
			"78790000000000010000000900000031000000000000000a"},
	{"CompoundArgs/empty", &CompoundArgs{}, "000000000000000000000000000000000000000000000000"},
	{"CompoundRep", &CompoundRep{Status: fserr.NoEnt, Results: []Result{
		&ResPutRootFH{}, &ResLookup{fhAttr{FH: 2, Attr: Attr{IsDir: true}}},
		&ResOpen{fhAttr: fhAttr{Errno: fserr.NoEnt}}}},
		"000000010000000300000018000000000000000f000000000000000000000002" +
			"0000000100000000000000000000000000000000000000120000000100000000" +
			"0000000000000000000000000000000000000000000000000000000000000000"},
}

// TestGoldenCompoundWire holds every row to its golden bytes both ways: the
// value encodes to them, WireSizeOf agrees with their length, and they
// decode — through the operation table, as the COMPOUND codec does — to a
// value that encodes to them again.  Every declared operation must have an
// operation row and a result row.
func TestGoldenCompoundWire(t *testing.T) {
	ops, results := map[uint32]bool{}, map[uint32]bool{}
	for _, g := range goldenCompound {
		enc := encodeWire(g.msg)
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("%s encodes to\n  %s\nwant\n  %s", g.name, got, g.hex)
			continue
		}
		if got := sizeWire(g.msg); got != int64(len(enc)) {
			t.Errorf("%s: WireSizeOf %d, encoding is %d bytes", g.name, got, len(enc))
		}
		fresh := reflect.New(reflect.TypeOf(g.msg).Elem()).Interface()
		switch m := g.msg.(type) {
		case Result: // first: every Result is also an Op
			results[m.Num()] = true
			fresh = opTable[m.Num()].res(fserr.OK)
		case Op:
			ops[m.Num()] = true
			fresh = opTable[m.Num()].op()
		}
		if reflect.TypeOf(fresh) != reflect.TypeOf(g.msg) {
			t.Errorf("%s: the operation table builds %T", g.name, fresh)
			continue
		}
		if err := decodeWire(enc, fresh); err != nil {
			t.Errorf("%s: decode of golden bytes: %v", g.name, err)
			continue
		}
		if got := hex.EncodeToString(encodeWire(fresh)); got != g.hex {
			t.Errorf("%s: golden bytes decode to %+v, which re-encodes to\n  %s", g.name, fresh, got)
		}
	}
	for num := range opTable {
		if !known(uint32(num)) {
			continue
		}
		if !ops[uint32(num)] || !results[uint32(num)] {
			t.Errorf("%s: operation row %v, result row %v", opName(uint32(num)), ops[uint32(num)], results[uint32(num)])
		}
	}
}

// encodeWire, decodeWire and sizeWire drive a golden row through the codec;
// the compounds, which cross rpc.Conn, are sized as the fabric sizes them.
func encodeWire(m any) []byte { return xdr.Encode(m.(xdr.Codec)) }

func decodeWire(b []byte, m any) error { return xdr.Decode(b, m.(xdr.Codec)) }

func sizeWire(m any) int64 {
	if c, ok := m.(xdr.Marshaler); ok {
		return rpc.WireSizeOf(c)
	}
	return xdr.Size(m.(xdr.Codec))
}

// FuzzDecodeCompound decodes arbitrary bytes as a COMPOUND request (rep
// false) or reply (rep true), seeded with every golden row — each operation
// and result inside a one-entry compound.  Decoding must never panic or
// allocate past the input, and anything that decodes must re-encode to a
// fixed point.
func FuzzDecodeCompound(f *testing.F) {
	for _, g := range goldenCompound {
		switch m := g.msg.(type) {
		case *CompoundArgs:
			f.Add(false, xdr.Encode(m))
		case *CompoundRep:
			f.Add(true, xdr.Encode(m))
		case Result:
			f.Add(true, xdr.Encode(&CompoundRep{Results: []Result{m}}))
		case Op:
			f.Add(false, xdr.Encode(&CompoundArgs{Ops: []Op{m}}))
		}
	}
	f.Fuzz(func(t *testing.T, rep bool, data []byte) {
		fresh := func() xdr.Codec { return &CompoundArgs{} }
		if rep {
			fresh = func() xdr.Codec { return &CompoundRep{} }
		}
		c := fresh()
		if err := xdr.Decode(data, c); err != nil {
			return
		}
		re := xdr.Encode(c)
		c2 := fresh()
		if err := xdr.Decode(re, c2); err != nil {
			t.Fatalf("re-encoded %T failed to decode: %v", c, err)
		}
		if !bytes.Equal(re, xdr.Encode(c2)) {
			t.Fatalf("%T: encode/decode/encode is not a fixed point", c)
		}
	})
}
