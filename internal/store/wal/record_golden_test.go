package wal

import (
	"encoding/hex"
	"testing"

	"dpnfs/internal/xdr"
)

// goldenRecords pins the on-log bytes of one record per opcode
// (docs/BACKENDS.md): a log written by one revision must replay under the
// next, so the hex column was captured from the hand-written encoder and is
// never edited by a refactor.
var goldenRecords = []struct {
	rec record
	hex string
}{
	{record{op: opCreate, dir: 1, id: 7, name: "f"},
		"0000000100000000000000010000000000000000000000000000000700000000" +
			"00000000000000000000000000000001660000000000000000000000"},
	{record{op: opMkdir, dir: 2, id: 8, name: "dd"},
		"0000000200000000000000020000000000000000000000000000000800000000" +
			"00000000000000000000000000000002646400000000000000000000"},
	{record{op: opRemove, dir: 3, name: "gone"},
		"0000000300000000000000030000000000000000000000000000000000000000" +
			"00000000000000000000000000000004676f6e650000000000000000"},
	{record{op: opRename, dir: 4, dir2: 5, name: "a", name2: "bcd"},
		"0000000400000000000000040000000000000005000000000000000000000000" +
			"0000000000000000000000000000000161000000000000036263640000000000"},
	{record{op: opWrite, id: 9, off: 1 << 20, data: []byte("payload")},
		"0000000500000000000000000000000000000000000000000000000900000000" +
			"0010000000000000000000000000000000000000000000077061796c6f616400"},
	{record{op: opWriteSyn, id: 10, off: 4096, size: 1 << 30},
		"0000000600000000000000000000000000000000000000000000000a00000000" +
			"000010000000000040000000000000000000000000000000"},
	{record{op: opTruncate, id: 11, size: 12345},
		"0000000700000000000000000000000000000000000000000000000b00000000" +
			"000000000000000000003039000000000000000000000000"},
	{record{op: opSetSize, id: 12, size: -1},
		"0000000800000000000000000000000000000000000000000000000c00000000" +
			"00000000ffffffffffffffff000000000000000000000000"},
	{record{op: opReserveID, id: 1 << 40},
		"0000000900000000000000000000000000000000000001000000000000000000" +
			"000000000000000000000000000000000000000000000000"},
}

// TestGoldenRecordEncoding holds each opcode's record to its bytes both ways:
// it encodes to them, Size agrees with their length, and they decode to a
// record that encodes to them again.
func TestGoldenRecordEncoding(t *testing.T) {
	seen := map[uint32]bool{}
	for _, g := range goldenRecords {
		seen[g.rec.op] = true
		enc := xdr.Encode(&g.rec)
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("opcode %d encodes to\n  %s\nwant\n  %s", g.rec.op, got, g.hex)
			continue
		}
		if got := xdr.Size(&g.rec); got != int64(len(enc)) {
			t.Errorf("opcode %d: Size %d, encoding is %d bytes", g.rec.op, got, len(enc))
		}
		var back record
		if err := xdr.Decode(enc, &back); err != nil {
			t.Errorf("opcode %d: decode of golden bytes: %v", g.rec.op, err)
			continue
		}
		if got := hex.EncodeToString(xdr.Encode(&back)); got != g.hex {
			t.Errorf("opcode %d: golden bytes decode to %+v, which re-encodes to\n  %s", g.rec.op, back, got)
		}
	}
	for op := opCreate; op <= opReserveID; op++ {
		if !seen[op] {
			t.Errorf("no golden record for opcode %d", op)
		}
	}
}
