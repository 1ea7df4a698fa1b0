package nfs

import (
	"bytes"
	"encoding/hex"
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// goldenReadResult pins the bytes of the READ result's checksum forms.  The
// first three rows were captured before the block-sum form existed — the
// form word is the old HasSum boolean — and must never be edited; the last
// is the block-sum form (docs/BACKENDS.md "Block checksums").
var goldenReadResult = []struct {
	name string
	res  *ResRead
	hex  string
}{
	{"no sum", &ResRead{Eof: true, Data: payload.Real([]byte("xyz"))},
		"00000000000000010000000378797a000000000000000000"},
	{"payload sum", &ResRead{Data: payload.Real([]byte("abcd")), Sum: 0xDEADBEEF, HasSum: true},
		"00000000000000000000000461626364deadbeef00000001"},
	{"synthetic", &ResRead{Errno: fserr.IO, Data: payload.Synthetic(5)},
		"00000008000000000000000500000000000000000000000000000000"},
	{"block sums", &ResRead{Eof: true, Data: payload.Real([]byte("ab")),
		Blocks: store.BlockSums{Salt0: 7<<32 | 3, Sums: []uint32{0x01020304, 0xA0B0C0D0}}},
		"0000000000000001000000026162000000000000000000020000000700000003" +
			"0000000201020304a0b0c0d0"},
}

// TestGoldenReadResult holds each form to its bytes both ways: the value
// encodes to them (Size agreeing, since the fabric charges it), and
// they decode to a value that encodes to them again.
func TestGoldenReadResult(t *testing.T) {
	for _, g := range goldenReadResult {
		enc := xdr.Encode(g.res)
		if got := hex.EncodeToString(enc); got != g.hex {
			t.Errorf("%s encodes to\n  %s\nwant\n  %s", g.name, got, g.hex)
			continue
		}
		if got := xdr.Size(g.res); got != int64(len(enc)) {
			t.Errorf("%s: Size %d, encoding is %d bytes", g.name, got, len(enc))
		}
		var back ResRead
		if err := xdr.Decode(enc, &back); err != nil {
			t.Errorf("%s: decode of golden bytes: %v", g.name, err)
			continue
		}
		if got := hex.EncodeToString(xdr.Encode(&back)); got != g.hex {
			t.Errorf("%s: golden bytes decode to %+v, which re-encodes to\n  %s", g.name, back, got)
		}
	}
}

// FuzzDecodeReadResult decodes arbitrary bytes as a READ result: malformed
// input — an unknown checksum form, a hostile sum count — must error out,
// never panic or allocate past the input, and anything that decodes must
// re-encode canonically.
func FuzzDecodeReadResult(f *testing.F) {
	for _, g := range goldenReadResult {
		f.Add(xdr.Encode(g.res))
	}
	block := xdr.Encode(goldenReadResult[len(goldenReadResult)-1].res)
	hostile := bytes.Clone(block[:32])             // through the salt
	f.Add(append(hostile, 0x7f, 0xff, 0xff, 0xff)) // sum count far past the input
	unknown := bytes.Clone(block)
	unknown[23] = 3 // checksum form 3
	f.Add(unknown)

	f.Fuzz(func(t *testing.T, data []byte) {
		var r ResRead
		if err := xdr.Decode(data, &r); err != nil {
			return
		}
		re := xdr.Encode(&r)
		var r2 ResRead
		if err := xdr.Decode(re, &r2); err != nil {
			t.Fatalf("re-encoded result failed to decode: %v", err)
		}
		if !bytes.Equal(re, xdr.Encode(&r2)) {
			t.Fatal("encode/decode/encode is not a fixed point")
		}
	})
}
