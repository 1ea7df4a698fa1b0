package rpc

import (
	"errors"
	"testing"
)

// TestReplyBufOwnership pins the three owners ReplyBuf gives a bulk reply
// buffer.  Under poison-on-put a buffer that went back to the pool reads
// 0xA5 at once, so "is this pool memory, and who returned it" is observable
// from the payload's own bytes.
func TestReplyBufOwnership(t *testing.T) {
	defer SetPoisonOnPut(SetPoisonOnPut(true))
	const n = 4096
	fill := func(buf []byte) (int, error) {
		for i := range buf {
			buf[i] = 7
		}
		return len(buf), nil
	}
	avoided := func() uint64 { _, a := BufCounters(); return a }

	// Serializing transport: the transport's Defer run returns the buffer.
	ctx := &Ctx{serialized: true}
	before := avoided()
	p, err := ctx.ReplyBuf(n, fill)
	if err != nil || p.Len() != n || p.Bytes[0] != 7 {
		t.Fatalf("serialized: payload len %d first byte %d err %v", p.Len(), p.Bytes[0], err)
	}
	p.Release() // not the consumer's to return
	if p.Bytes[0] != 7 {
		t.Error("serialized: payload.Release returned a Defer-owned buffer")
	}
	ctx.runDeferred()
	if p.Bytes[0] != poisonByte {
		t.Error("serialized: the deferred hook did not return the buffer to the pool")
	}
	if avoided() != before {
		t.Error("serialized: counted an avoided copy for a payload that is copied onto the wire")
	}

	// Reference-passing transport: the one consumer returns it, and the
	// hand-over counts into rpc_buf_copies_avoided_total.
	ctx = &Ctx{}
	p, err = ctx.ReplyBuf(n, fill)
	if err != nil || len(ctx.deferred) != 0 {
		t.Fatalf("by reference: err %v, %d deferred hooks, want none", err, len(ctx.deferred))
	}
	if got := avoided() - before; got != 1 {
		t.Errorf("by reference: rpc_buf_copies_avoided_total moved by %d, want 1", got)
	}
	p.Release()
	if p.Bytes[0] != poisonByte {
		t.Error("by reference: the consumer's Release did not return the buffer to the pool")
	}

	// Retained reply: never pool memory, on either kind of transport.
	for _, ctx := range []*Ctx{{}, {serialized: true}} {
		ctx.Retain()
		p, err = ctx.ReplyBuf(n, fill)
		if err != nil {
			t.Fatal(err)
		}
		p.Release()
		ctx.runDeferred()
		if p.Bytes[0] != 7 || cap(p.Bytes) != n {
			t.Errorf("retained (serialized=%v): byte %#x cap %d, want an unpooled buffer of exactly %d",
				ctx.serialized, p.Bytes[0], cap(p.Bytes), n)
		}
	}
	if got := avoided() - before; got != 1 {
		t.Errorf("retained: rpc_buf_copies_avoided_total moved by %d in all, want 1", got)
	}

	// A failed fill leaves nothing behind to release.
	boom := errors.New("boom")
	ctx = &Ctx{serialized: true}
	if p, err := ctx.ReplyBuf(n, func([]byte) (int, error) { return 0, boom }); err != boom || p.Bytes != nil || len(ctx.deferred) != 0 {
		t.Errorf("failed fill: payload %v err %v with %d deferred hooks", p.Bytes != nil, err, len(ctx.deferred))
	}

	// A short fill is trimmed to what it filled, whoever owns the buffer:
	// the poisoned tail of a recycled buffer never reaches the payload.
	short := func(buf []byte) (int, error) {
		clear(buf[:n/2])
		return n / 2, nil
	}
	for _, ctx := range []*Ctx{{}, {serialized: true}, {retained: true}} {
		p, err := ctx.ReplyBuf(n, short)
		if err != nil || p.Len() != n/2 || len(p.Bytes) != n/2 {
			t.Errorf("short fill (serialized=%v retained=%v): payload of %d (%d bytes), %v; want %d",
				ctx.serialized, ctx.retained, p.Len(), len(p.Bytes), err, n/2)
		}
		p.Release()
		ctx.runDeferred()
	}
}
