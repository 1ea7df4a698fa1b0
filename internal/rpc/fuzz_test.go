package rpc

import (
	"bytes"
	"testing"

	"dpnfs/internal/payload"
	"dpnfs/internal/xdr"
)

// FuzzBorrowLifetime exercises the zero-copy decode lifetime rules end to
// end: a payload decoded in borrow mode aliases the pooled frame, the frame
// must stay readable exactly until the payload's Release, and after the
// frame returns to the pool the borrowed window must be poisoned — proving
// the decode never copied, and that any use-after-release reads garbage the
// poison detector would catch rather than silently stale data.
func FuzzBorrowLifetime(f *testing.F) {
	f.Add([]byte("hello, borrow"), uint8(3))
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xA5}, 64), uint8(1)) // content == poison byte
	f.Add(make([]byte, 4096), uint8(200))
	f.Add(bytes.Repeat([]byte("gather!"), xdr.GatherMin/7+1), uint8(7)) // sent by reference, padding after

	f.Fuzz(func(t *testing.T, data []byte, extra uint8) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		prev := SetPoisonOnPut(true)
		defer SetPoisonOnPut(prev)

		// Encode the payload plus a trailing word the way the TCP transport
		// does — a gathering encoder, payloads of GatherMin bytes or more by
		// reference — and land the segments in a pooled frame, as the peer's
		// readFrame would.
		enc := xdr.NewEncoder()
		enc.EnableGather()
		payload.Real(data).MarshalXDR(enc)
		enc.Uint32(uint32(extra))
		if byRef := len(data) >= xdr.GatherMin; (enc.Refs() == 1) != byRef {
			t.Fatalf("%d-byte payload: %d by-reference segments", len(data), enc.Refs())
		}
		frame := GetBuf(enc.Len())[:0]
		for _, seg := range enc.Buffers(nil) {
			frame = append(frame, seg...)
		}

		// Decode in borrow mode under a ref-counted frame, as TCPClient.Call
		// does: the creator's reference is dropped once decoding finishes,
		// and only the payload's retain keeps the frame alive.
		ref := NewRefBuf(frame)
		d := xdr.NewDecoder(frame)
		d.EnableBorrow(ref)
		var p payload.Payload
		if err := p.UnmarshalXDR(d); err != nil {
			t.Fatalf("decode payload: %v", err)
		}
		if got, err := d.Uint32(); err != nil || got != uint32(extra) {
			t.Fatalf("trailing word: got %d, %v; want %d", got, err, extra)
		}
		if len(data) > 0 && d.Borrowed() == 0 {
			t.Fatal("non-empty opaque did not take the borrow path")
		}
		ref.Release()

		// The payload retained the frame across the creator's release: the
		// borrowed bytes must still be exactly the encoded content.
		if !bytes.Equal(p.Bytes, data) {
			t.Fatalf("borrowed bytes corrupted while retained: %q != %q", p.Bytes, data)
		}
		alias := p.Bytes

		// The final release sends the frame back to the pool, which poisons
		// it.  The old alias must now read all-poison: the decoded bytes
		// aliased the frame (zero-copy) and are unusable past Release.
		p.Release()
		for i, b := range alias {
			if b != 0xA5 {
				t.Fatalf("byte %d of released borrow not poisoned: %#x", i, b)
			}
		}
	})
}
