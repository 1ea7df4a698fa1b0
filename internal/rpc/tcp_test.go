package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/xdr"
)

// TestFrameRoundTrip exercises the wire codec directly: header fields,
// body bytes, and the HeaderBytes accounting invariant.
func TestFrameRoundTrip(t *testing.T) {
	body := &echoArgs{N: 99, Blob: []byte("frame body bytes")}
	var buf bytes.Buffer
	var mu sync.Mutex
	if _, err := writeFrame(&buf, &mu, 7, msgCall, procEcho, body); err != nil {
		t.Fatal(err)
	}
	if want := HeaderBytes + int(WireSizeOf(body)); buf.Len() != want {
		t.Fatalf("frame length %d, want HeaderBytes+body = %d", buf.Len(), want)
	}
	xid, mtype, word, got, rec, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer PutBuf(rec)
	if xid != 7 || mtype != msgCall || word != procEcho {
		t.Fatalf("header = (%d, %d, %d), want (7, %d, %d)", xid, mtype, word, msgCall, procEcho)
	}
	var dec echoArgs
	if err := xdr.Unmarshal(got, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.N != 99 || string(dec.Blob) != "frame body bytes" {
		t.Fatalf("decoded %+v", dec)
	}
}

// TestFrameRejectsBadLength guards the record-length sanity check.
func TestFrameRejectsBadLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, _, _, _, err := readFrame(&buf); err == nil {
		t.Fatal("readFrame accepted an absurd record length")
	}
}

// TestTCPPipelinedOutOfOrder issues many concurrent calls down one
// connection with reply order inverted by a sleeping handler: every call
// must still receive its own reply (xid demultiplexing).
func TestTCPPipelinedOutOfOrder(t *testing.T) {
	const calls = 8
	handler := func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
		a := req.(*echoArgs)
		// Later requests reply sooner: completion order is reversed.
		time.Sleep(time.Duration(calls-a.N) * 3 * time.Millisecond)
		return &echoArgs{N: a.N * 10, Blob: a.Blob}, StatusOK
	}
	srv, err := ListenTCP("127.0.0.1:0", echoRegistry(), handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			args := echoArgs{N: uint64(i), Blob: []byte(fmt.Sprintf("call-%d", i))}
			var rep echoArgs
			if err := conn.Call(&Ctx{}, procEcho, &args, &rep); err != nil {
				errs[i] = err
				return
			}
			if rep.N != uint64(i)*10 || string(rep.Blob) != fmt.Sprintf("call-%d", i) {
				errs[i] = fmt.Errorf("call %d got reply %d/%q", i, rep.N, rep.Blob)
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTCPPeerDisconnectMidCall kills the server side of the socket while a
// call is outstanding: the call must fail with an error, not hang.
func TestTCPPeerDisconnectMidCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Read the call, then hang up without replying.
		_, _, _, _, rec, err := readFrame(conn)
		if err == nil {
			PutBuf(rec)
		}
		conn.Close()
	}()
	c, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		var rep echoArgs
		done <- c.Call(&Ctx{}, procEcho, &echoArgs{N: 1}, &rep)
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded despite peer disconnect")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call hung after peer disconnect")
	}
	if c.Dead() == nil {
		t.Fatal("connection not marked dead after disconnect")
	}
}

// TestTCPPoolReconnect breaks every pooled connection and checks that the
// next calls transparently redial.
func TestTCPPoolReconnect(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoRegistry(), echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool := NewTCPPool(srv.Addr(), 2)
	defer pool.Close()

	call := func(n uint64) error {
		var rep echoArgs
		if err := pool.Call(&Ctx{}, procEcho, &echoArgs{N: n}, &rep); err != nil {
			return err
		}
		if rep.N != n+1 {
			return fmt.Errorf("echo(%d) = %d", n, rep.N)
		}
		return nil
	}
	for i := 0; i < 4; i++ {
		if err := call(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Sever every live connection behind the pool's back.
	pool.mu.Lock()
	for _, c := range pool.conns {
		if c != nil {
			c.conn.Close()
		}
	}
	pool.mu.Unlock()
	// Calls keep working: dead conns are detected and redialed.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < 4; i++ {
		err := call(uint64(100 + i))
		for err != nil && time.Now().Before(deadline) {
			err = call(uint64(100 + i))
		}
		if err != nil {
			t.Fatalf("call after reconnect: %v", err)
		}
	}
}

// failingWrite is a socket whose every write fails.
type failingWrite struct{ net.Conn }

func (failingWrite) Write([]byte) (int, error) { return 0, fmt.Errorf("test: write refused") }

// TestSendFailureRedials: a write that fails may leave part of a frame on
// the socket, so the client dies and the pool's one retry goes out on a
// fresh connection — even in a pool of one, where the retry would
// otherwise pick the broken client again.
func TestSendFailureRedials(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", echoRegistry(), echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reg := metrics.NewRegistry()
	pool := NewTCPPool(srv.Addr(), 1)
	pool.stats = newConnStats(reg, "tcp", "echo")
	defer pool.Close()
	sock, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	broken := &TCPClient{conn: failingWrite{sock}, stats: pool.stats, pending: make(map[uint32]chan tcpReply)}
	go broken.readLoop()
	pool.conns[0] = broken

	var rep echoArgs
	if err := pool.Call(&Ctx{}, procEcho, &echoArgs{N: 7}, &rep); err != nil || rep.N != 8 {
		t.Fatalf("call over a pool whose one client cannot write: echo %d, %v; want 8 on the retry", rep.N, err)
	}
	if broken.Dead() == nil {
		t.Error("the client whose write failed is still usable")
	}
	for name, want := range map[string]uint64{"rpc_client_retries_total": 1, "rpc_client_connects_total": 1} {
		if got := reg.CounterVec(name, "", "transport", "service").With("tcp", "echo").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestTCPTransportPoolKeying checks that repeat dials from one client node
// share a pool, distinct client nodes get their own (so bulk frames from
// different clients never serialize on one socket), and names resolve
// through the transport's registry.
func TestTCPTransportPoolKeying(t *testing.T) {
	tr := NewTCPTransport(2)
	defer tr.Close()
	addr, err := tr.Serve("io0", "echo", echoRegistry(), echoHandler, 4)
	if err != nil {
		t.Fatal(err)
	}
	if addr == "" {
		t.Fatal("Serve returned empty address")
	}
	c1, err := tr.Dial("c0", "io0", "echo")
	if err != nil {
		t.Fatal(err)
	}
	c1again, err := tr.Dial("c0", "io0", "echo")
	if err != nil {
		t.Fatal(err)
	}
	// Dial puts each pool behind the node's down switch; pool sharing is
	// what matters.
	if c1.(*gatedConn).wire != c1again.(*gatedConn).wire {
		t.Fatal("repeat dial from one client got a distinct pool")
	}
	c2, err := tr.Dial("c1", "io0", "echo")
	if err != nil {
		t.Fatal(err)
	}
	if c1.(*gatedConn).wire == c2.(*gatedConn).wire {
		t.Fatal("distinct client nodes share one connection pool")
	}
	if _, err := tr.Dial("c0", "nowhere", "echo"); err == nil {
		t.Fatal("Dial resolved an unregistered endpoint")
	}
	var rep echoArgs
	if err := c1.Call(&Ctx{}, procEcho, &echoArgs{N: 5}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.N != 6 {
		t.Fatalf("echo = %d", rep.N)
	}
}

// TestCtxRetainDisablesPooling pins the replay-cache contract: once a
// server marks a call's reply as retained, ReplyBuf hands out a fresh
// buffer with nothing to release, even on a serializing transport.
func TestCtxRetainDisablesPooling(t *testing.T) {
	fill := func(buf []byte) (int, error) { return len(buf), nil }
	ctx := &Ctx{serialized: true}
	if _, err := ctx.ReplyBuf(4096, fill); err != nil || len(ctx.deferred) != 1 {
		t.Fatalf("serializing ctx: err %v, %d deferred releases, want 1", err, len(ctx.deferred))
	}
	ctx.runDeferred()
	ctx.Retain()
	p, err := ctx.ReplyBuf(4096, fill)
	if err != nil || len(ctx.deferred) != 0 || cap(p.Bytes) != 4096 {
		t.Fatalf("retained ctx: err %v, %d deferred releases, cap %d; want a fresh exact-size buffer", err, len(ctx.deferred), cap(p.Bytes))
	}
}

// TestBufPoolReuse checks that a released buffer's storage is handed back
// out for a same-class request.  sync.Pool gives no hard guarantee, so the
// test accepts any reuse within a few attempts.
func TestBufPoolReuse(t *testing.T) {
	reused := false
	for attempt := 0; attempt < 8 && !reused; attempt++ {
		b1 := GetBuf(3000)
		p1 := &b1[0]
		PutBuf(b1)
		b2 := GetBuf(4000) // same 4 KiB class
		reused = &b2[0] == p1
		PutBuf(b2)
	}
	if !reused {
		t.Fatal("pooled buffer never reused")
	}
	if got := GetBuf(100); cap(got) != classSize(0) {
		t.Fatalf("small buffer capacity %d, want %d", cap(got), classSize(0))
	}
	// A power-of-two payload plus its framing stays in the payload's class.
	if got := GetBuf(2<<20 + HeaderBytes + 100); cap(got) != 2<<20+frameSlack {
		t.Fatalf("2 MiB frame capacity %d, want %d", cap(got), 2<<20+frameSlack)
	}
	if got := len(GetBuf(5000)); got != 5000 {
		t.Fatalf("GetBuf length %d, want 5000", got)
	}
	// Oversized buffers bypass the pool without panicking.
	huge := GetBuf(classSize(numClasses-1) + 1)
	PutBuf(huge)
}

// bulkMsg is a tagged payload: the shape of a WRITE call or a READ reply.
type bulkMsg struct {
	Tag  uint64
	Data payload.Payload
}

func (m *bulkMsg) XDR(f xdr.Filter) {
	f.U64(&m.Tag)
	f.Payload(&m.Data)
}

func (m *bulkMsg) MarshalXDR(e *xdr.Encoder)         { m.XDR(e) }
func (m *bulkMsg) UnmarshalXDR(d *xdr.Decoder) error { return d.Decode(m) }

// TestGatheredFramesNeverInterleave drives eight concurrent callers, each
// moving 2 MB both ways, down ONE socket.  Frames go out as gathered writes
// (head, payload by reference, tail); the write mutex must keep each frame's
// segments contiguous on the wire in both directions, and the byte counters
// must still see header + payload although the payload never enters the
// encoder's buffer.
func TestGatheredFramesNeverInterleave(t *testing.T) {
	const (
		callers = 8
		rounds  = 2
		size    = 2 << 20
	)
	fill := func(b []byte, tag uint64) []byte {
		for i := range b {
			b[i] = byte(uint64(i)*31 + tag)
		}
		return b
	}
	reg := NewRegistry()
	reg.Register(procEcho, func() xdr.Unmarshaler { return &bulkMsg{} })
	handler := func(ctx *Ctx, _ uint32, req any) (xdr.Marshaler, Status) {
		m := req.(*bulkMsg)
		if !bytes.Equal(m.Data.Bytes, fill(make([]byte, size), m.Tag)) {
			return nil, StatusGarbageArgs // a frame was torn on the way in
		}
		// The reply payload is a pooled buffer held until the frame is
		// written, the way the storage servers hand out READ data.
		buf := fill(GetBuf(size), m.Tag+1000)
		ctx.Defer(func() { PutBuf(buf) })
		return &bulkMsg{Tag: m.Tag + 1000, Data: payload.Real(buf)}, StatusOK
	}
	metricsReg := metrics.NewRegistry()
	tr := NewTCPTransport(1) // one connection: every frame shares it
	tr.Metrics = metricsReg
	defer tr.Close()
	if _, err := tr.Serve("srv", "bulk", reg, handler, callers); err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial("cli", "srv", "bulk")
	if err != nil {
		t.Fatal(err)
	}
	prev := SetPoisonOnPut(true) // a payload recycled before its frame left reads 0xA5
	defer SetPoisonOnPut(prev)

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]byte, size)
			for r := 0; r < rounds; r++ {
				tag := uint64(c*rounds + r)
				var rep bulkMsg
				if err := conn.Call(&Ctx{}, procEcho, &bulkMsg{Tag: tag, Data: payload.Real(fill(out, tag))}, &rep); err != nil {
					errs <- fmt.Errorf("caller %d round %d: %w", c, r, err)
					return
				}
				ok := rep.Tag == tag+1000 && bytes.Equal(rep.Data.Bytes, fill(make([]byte, size), tag+1000))
				rep.Data.Release()
				if !ok {
					errs <- fmt.Errorf("caller %d round %d: reply torn or misrouted", c, r)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := uint64(callers * rounds * (HeaderBytes + xdr.SizeUint64 + xdr.SizeOpaque(size)))
	for _, name := range []string{"rpc_client_bytes_sent_total", "rpc_client_bytes_received_total"} {
		if got := metricsReg.CounterVec(name, "", "transport", "service").With("tcp", "bulk").Value(); got != want {
			t.Errorf("%s = %d, want %d (header + payload per frame)", name, got, want)
		}
	}
}

// TestSendErrorWrapsItsCause: a send failure names itself and keeps the
// transport error it wraps reachable through errors.Is.
func TestSendErrorWrapsItsCause(t *testing.T) {
	var err error = &SendError{Err: net.ErrClosed}
	if !errors.Is(err, net.ErrClosed) || err.Error() != "rpc: send failed: "+net.ErrClosed.Error() {
		t.Fatalf("SendError reads %q and unwraps to %v", err, errors.Unwrap(err))
	}
}
