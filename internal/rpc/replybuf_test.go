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
	fill := func(buf []byte) error {
		for i := range buf {
			buf[i] = 7
		}
		return nil
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
	if p, err := ctx.ReplyBuf(n, func([]byte) error { return boom }); err != boom || p.Bytes != nil || len(ctx.deferred) != 0 {
		t.Errorf("failed fill: payload %v err %v with %d deferred hooks", p.Bytes != nil, err, len(ctx.deferred))
	}
}
