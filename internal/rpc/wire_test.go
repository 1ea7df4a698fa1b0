package rpc_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"testing"

	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// The TCP transport writes frames from a gathering encoder: bulk payloads
// leave by reference in one vectored write.  These tests pin the wire format
// to the flat encoding, byte for byte, for every message that carries a
// payload — captured off a real socket, so the writev path itself is what is
// compared.

// flatFrame is the reference: header and body appended to one flat buffer.
func flatFrame(xid, mtype, word uint32, body xdr.Marshaler) []byte {
	e := xdr.NewEncoder()
	e.Uint32(0)
	e.Uint32(xid)
	e.Uint32(mtype)
	e.Uint32(word)
	e.Opaque(make([]byte, 20)) // the placeholder credential
	if body != nil {
		e.Marshal(body)
	}
	b := e.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// readRawFrame reads one length-prefixed record, prefix included.
func readRawFrame(r io.Reader) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	rec := make([]byte, 4+binary.BigEndian.Uint32(lenBuf[:]))
	copy(rec, lenBuf[:])
	_, err := io.ReadFull(r, rec[4:])
	return rec, err
}

type wireCase struct {
	name string
	data payload.Payload
}

func wireCases() []wireCase {
	var cases []wireCase
	for _, n := range []int{0, 1, 3, xdr.GatherMin - 1, xdr.GatherMin, 2 << 20, 2<<20 + 1} {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*13 + n)
		}
		cases = append(cases, wireCase{fmt.Sprintf("real-%d", n), payload.Real(b)})
	}
	return append(cases, wireCase{"synthetic", payload.Synthetic(3*xdr.GatherMin + 1)})
}

// TestCallFramesMatchFlatEncoding sends WRITE calls of both protocols through
// TCPClient.Call and compares what a raw listener receives.
func TestCallFramesMatchFlatEncoding(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	frames := make(chan []byte, 1) // the listener acknowledges before the test collects
	go func() {
		defer close(frames)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			rec, err := readRawFrame(conn)
			if err != nil {
				return
			}
			frames <- rec
			// Acknowledge so the caller returns: an OK reply with no body.
			if _, err := conn.Write(flatFrame(binary.BigEndian.Uint32(rec[4:]), 1, 0, nil)); err != nil {
				return
			}
		}
	}()
	c, err := rpc.DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	xid := uint32(0)
	for _, wc := range wireCases() {
		msgs := []struct {
			proc uint32
			body interface {
				xdr.Marshaler
				WireSize() int64
			}
		}{
			{nfs.ProcCompound, &nfs.CompoundArgs{Session: 9, Slot: 2, Seq: 5, Ops: []nfs.Op{
				&nfs.OpPutFH{FH: 77},
				&nfs.OpWrite{StateID: 3, Off: 1 << 33, Data: wc.data, Stable: true},
			}}},
			{pvfs.ProcIOWrite, &pvfs.IOWriteArgs{Handle: 12, Off: 4096, Data: wc.data, Sync: true}},
		}
		for _, m := range msgs {
			xid++
			_, avoided := rpc.BufCounters()
			if err := c.Call(&rpc.Ctx{}, m.proc, m.body, nil); err != nil {
				t.Fatalf("%s: call: %v", wc.name, err)
			}
			got := <-frames
			// rpc_buf_copies_avoided_total counts by-reference sends: exactly
			// the real payloads of GatherMin bytes or more.
			byRef := uint64(0)
			if len(wc.data.Bytes) >= xdr.GatherMin {
				byRef = 1
			}
			if _, now := rpc.BufCounters(); now-avoided != byRef {
				t.Errorf("%s %T: %d payloads sent by reference, want %d", wc.name, m.body, now-avoided, byRef)
			}
			want := flatFrame(xid, 0, m.proc, m.body)
			if !bytes.Equal(got, want) {
				t.Errorf("%s %T: frame on the wire differs from the flat encoding (%d vs %d bytes)",
					wc.name, m.body, len(got), len(want))
			}
			if int64(len(got)) != rpc.HeaderBytes+m.body.WireSize() {
				t.Errorf("%s %T: frame is %d bytes, HeaderBytes+WireSize = %d",
					wc.name, m.body, len(got), rpc.HeaderBytes+m.body.WireSize())
			}
		}
	}
}

// TestReplyFramesMatchFlatEncoding has a TCPServer send READ replies of both
// protocols and compares what a raw client socket receives.
func TestReplyFramesMatchFlatEncoding(t *testing.T) {
	next := make(chan xdr.Marshaler, 1) // the reply under test, queued before each call
	reg := rpc.NewRegistry()
	reg.Register(1, func() xdr.Unmarshaler { return &nfs.CompoundArgs{} })
	srv, err := rpc.ListenTCP("127.0.0.1:0", reg, func(*rpc.Ctx, uint32, any) (xdr.Marshaler, rpc.Status) {
		return <-next, rpc.StatusOK
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	xid := uint32(100)
	for _, wc := range wireCases() {
		sum := xdr.Checksum(wc.data.Bytes)
		replies := []xdr.Marshaler{
			&nfs.CompoundRep{Results: []nfs.Result{
				&nfs.ResRead{Eof: true, Data: wc.data, Sum: sum, HasSum: true},
				&nfs.ResRead{Data: wc.data},
			}},
			&pvfs.IOReadRep{Data: wc.data, Eof: true, Sum: sum, HasSum: true},
		}
		for _, rep := range replies {
			xid++
			next <- rep
			if _, err := conn.Write(flatFrame(xid, 0, 1, &nfs.CompoundArgs{})); err != nil {
				t.Fatal(err)
			}
			got, err := readRawFrame(conn)
			if err != nil {
				t.Fatalf("%s: reading reply: %v", wc.name, err)
			}
			if want := flatFrame(xid, 1, 0, rep); !bytes.Equal(got, want) {
				t.Errorf("%s %T: reply on the wire differs from the flat encoding (%d vs %d bytes)",
					wc.name, rep, len(got), len(want))
			}
		}
	}
}
