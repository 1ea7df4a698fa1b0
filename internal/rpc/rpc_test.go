package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// echoArgs is a trivial round-trip message for transport tests.
type echoArgs struct {
	N    uint64
	Blob []byte
}

func (a *echoArgs) XDR(f xdr.Filter) {
	f.U64(&a.N)
	f.Blob(&a.Blob)
}

func (a *echoArgs) MarshalXDR(e *xdr.Encoder)         { a.XDR(e) }
func (a *echoArgs) UnmarshalXDR(d *xdr.Decoder) error { return d.Decode(a) }

const procEcho = 7

func echoHandler(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
	if proc != procEcho {
		return nil, StatusProcUnavail
	}
	a, ok := req.(*echoArgs)
	if !ok {
		return nil, StatusGarbageArgs
	}
	return &echoArgs{N: a.N + 1, Blob: a.Blob}, StatusOK
}

func echoRegistry() *Registry {
	reg := NewRegistry()
	reg.Register(procEcho, func() xdr.Unmarshaler { return &echoArgs{} })
	return reg
}

// serveSim serves h as service on node "server" of a fresh fabric and
// dials it from node "client".
func serveSim(t *testing.T, service string, h Handler, threads int) (*sim.Kernel, *FabricTransport, Conn) {
	t.Helper()
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	f.AddNode(simnet.NodeConfig{Name: "client"})
	f.AddNode(simnet.NodeConfig{Name: "server"})
	tr := &FabricTransport{Fabric: f}
	if _, err := tr.Serve("server", service, nil, h, threads); err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial("client", "server", service)
	if err != nil {
		t.Fatal(err)
	}
	return k, tr, conn
}

func TestSimTransportChargesBandwidth(t *testing.T) {
	// A 1 MB call at 1 Gb/s should take ≥ 8 ms of virtual time per direction.
	k, _, conn := serveSim(t, "echo", echoHandler, 4)
	var done sim.Time
	k.Go("caller", func(p *sim.Proc) {
		args := echoArgs{Blob: make([]byte, 1<<20)}
		var got echoArgs
		if err := conn.Call(&Ctx{P: p}, procEcho, &args, &got); err != nil {
			t.Error(err)
		}
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Duration(done); elapsed < 16*time.Millisecond {
		t.Fatalf("1 MB round trip took %v of virtual time; bandwidth not charged", elapsed)
	}
}

func TestSimTransportThreadLimit(t *testing.T) {
	// With 1 server thread and a 10 ms handler, 4 concurrent calls must
	// serialize: total ≥ 40 ms.
	slow := func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
		ctx.Sleep(10 * time.Millisecond)
		return nil, StatusOK
	}
	k, _, conn := serveSim(t, "slow", slow, 1)
	var last sim.Time
	for i := 0; i < 4; i++ {
		k.Go("caller", func(p *sim.Proc) {
			if err := conn.Call(&Ctx{P: p}, 1, &echoArgs{}, nil); err != nil {
				t.Error(err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if time.Duration(last) < 40*time.Millisecond {
		t.Fatalf("4 calls on 1 thread finished in %v, want ≥ 40 ms", time.Duration(last))
	}
}

// TestSimCallAllocations pins the cost of a warm simulated call: nothing.
// The handler's Proc and coroutine, frames, handler slots and their Ctx are
// reused, and neither the request nor the reply is boxed on its way across
// the fabric.  It holds with and without metric instruments on the conn and
// the handler.
func TestSimCallAllocations(t *testing.T) {
	for _, reg := range []*metrics.Registry{nil, metrics.NewRegistry()} {
		k := sim.NewKernel(1)
		f := simnet.NewFabric(k)
		f.AddNode(simnet.NodeConfig{Name: "client"})
		f.AddNode(simnet.NodeConfig{Name: "server"})
		tr := &FabricTransport{Fabric: f, Metrics: reg}
		var out echoArgs // one call in flight at a time: one reply value serves
		echo := func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
			out.N = req.(*echoArgs).N + 1
			return &out, StatusOK
		}
		if _, err := tr.Serve("server", "echo", nil, echo, 4); err != nil {
			t.Fatal(err)
		}
		conn, err := tr.Dial("client", "server", "echo")
		if err != nil {
			t.Fatal(err)
		}
		allocs := -1.0
		k.Go("caller", func(p *sim.Proc) {
			ctx := &Ctx{P: p}
			args, got := echoArgs{Blob: []byte("payload")}, echoArgs{}
			call := func() {
				args.N++
				if err := conn.Call(ctx, procEcho, &args, &got); err != nil || got.N != args.N+1 {
					t.Errorf("call %d: reply %d, err %v", args.N, got.N, err)
				}
			}
			call() // warm-up: the first frame and slot
			allocs = testing.AllocsPerRun(100, call)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		if allocs != 0 {
			t.Errorf("metrics %v: %v allocations per simulated call, want 0", reg != nil, allocs)
		}
	}
}

// TestSimCallReuseUnderBlockedHook: a handler's deferred hook may block long
// after its reply has landed, while the caller reuses the call's frame for
// its next call.  The hook must still run on its own slot — the Ctx it was
// registered on, holding the process that handles its call — and the next
// call, whose 1 MB reply is still in flight when the hook wakes, must get
// its own reply.
func TestSimCallReuseUnderBlockedHook(t *testing.T) {
	var hooks []uint64
	handler := func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
		a := req.(*echoArgs)
		n, p := a.N, ctx.P
		ctx.Defer(func() {
			ctx.Sleep(10 * time.Millisecond)
			if ctx.P != p {
				t.Errorf("call %d: the hook's Ctx was handed to another request", n)
			}
			hooks = append(hooks, n)
		})
		return &echoArgs{N: n + 1, Blob: a.Blob}, StatusOK
	}
	k, _, conn := serveSim(t, "echo", handler, 4)
	big := make([]byte, 1<<20)
	k.Go("caller", func(p *sim.Proc) {
		ctx := &Ctx{P: p}
		for n, blob := range [][]byte{[]byte("first"), big} {
			var got echoArgs
			err := conn.Call(ctx, procEcho, &echoArgs{N: uint64(10 * n), Blob: blob}, &got)
			if err != nil || got.N != uint64(10*n+1) || len(got.Blob) != len(blob) {
				t.Errorf("call %d: reply N %d with %d bytes, err %v; want N %d with %d bytes",
					n, got.N, len(got.Blob), err, 10*n+1, len(blob))
			}
		}
		if frames := conn.(*gatedConn).wire.(*simWire).frames; len(frames) != 1 {
			t.Errorf("%d idle frames after two sequential calls, want 1", len(frames))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(hooks) != 2 || hooks[0] != 0 || hooks[1] != 10 {
		t.Errorf("deferred hooks ran for calls %v, want [0 10]", hooks)
	}
}

// encodeOnly is a message that only encodes, as benchmark probe messages do.
type encodeOnly []uint32

func (m encodeOnly) MarshalXDR(e *xdr.Encoder) {
	for _, w := range m {
		e.Uint32(w)
	}
}

// TestWireSizeOfMatchesEncoding: a message that declares its wire shape
// (xdr.Codec) is sized by a sizing pass, one that only encodes by an encode
// pass, and both agree with the encoding.
func TestWireSizeOfMatchesEncoding(t *testing.T) {
	for _, m := range []xdr.Marshaler{
		&echoArgs{N: 1, Blob: make([]byte, 101)},
		&bulkMsg{Tag: 2, Data: payload.Synthetic(33)},
		encodeOnly{3, 4, 5},
	} {
		if got, want := WireSizeOf(m), int64(len(xdr.Marshal(m))); got != want {
			t.Errorf("%T: WireSizeOf %d, encoding is %d bytes", m, got, want)
		}
	}
}

func TestCopyReplyTypeMismatch(t *testing.T) {
	type other struct{ echoArgs }
	var dst echoArgs
	src := &other{}
	if err := copyReply(&dst, src); err == nil {
		t.Fatal("type mismatch not detected")
	}
}

// TestLocalConn: the wire-less conn copies an OK reply, turns a handler that
// met a crash into store.ErrUnavailable, and returns any other status as is.
func TestLocalConn(t *testing.T) {
	conn := LocalConn(func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
		if proc == procEcho+1 {
			return nil, StatusDown
		}
		return echoHandler(ctx, proc, req)
	})
	var got echoArgs
	if err := conn.Call(&Ctx{}, procEcho, &echoArgs{N: 41, Blob: []byte("payload")}, &got); err != nil {
		t.Fatal(err)
	}
	if got.N != 42 || string(got.Blob) != "payload" {
		t.Fatalf("echo returned %+v", got)
	}
	if err := conn.Call(&Ctx{}, procEcho+1, &echoArgs{}, &got); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("crashed handler returned %v, want store.ErrUnavailable", err)
	}
	if err := conn.Call(&Ctx{}, 999, &echoArgs{}, &got); err != StatusProcUnavail {
		t.Fatalf("bad proc returned %v, want StatusProcUnavail", err)
	}
}

func TestTCPGarbageArgs(t *testing.T) {
	// Register a proc whose decode will fail on a mismatched body.
	reg := NewRegistry()
	reg.Register(1, func() xdr.Unmarshaler { return &echoArgs{} })
	s, err := ListenTCP("127.0.0.1:0", reg, echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialTCP(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// shortMsg encodes fewer bytes than echoArgs needs.
	if err := c.Call(&Ctx{}, 1, &shortMsg{}, nil); err != StatusGarbageArgs {
		t.Fatalf("got %v, want StatusGarbageArgs", err)
	}
}

type shortMsg struct{}

func (*shortMsg) MarshalXDR(e *xdr.Encoder)         { e.Uint32(0) }
func (*shortMsg) UnmarshalXDR(d *xdr.Decoder) error { _, err := d.Uint32(); return err }

func TestTCPServerCloseFailsCalls(t *testing.T) {
	block := make(chan struct{})
	reg := echoRegistry()
	s, err := ListenTCP("127.0.0.1:0", reg, func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
		<-block
		return nil, StatusOK
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTCP(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Call(&Ctx{}, procEcho, &echoArgs{}, nil) }()
	time.Sleep(50 * time.Millisecond)
	close(block)
	s.Close()
	if err := <-done; err != nil && err != StatusOK {
		// Either outcome (completed before close, or failed) is acceptable;
		// the test asserts no hang and no panic.
		t.Logf("call after close: %v", err)
	}
	c.Close()
}

func TestHeaderBytesMatchesWire(t *testing.T) {
	// An empty-body frame must be exactly HeaderBytes long on the wire.
	var mu sync.Mutex
	var buf writeRecorder
	if _, err := writeFrame(&buf, &mu, 1, msgCall, 2, nil); err != nil {
		t.Fatal(err)
	}
	if len(buf) != HeaderBytes {
		t.Fatalf("empty frame is %d bytes on the wire, HeaderBytes=%d", len(buf), HeaderBytes)
	}
}

type writeRecorder []byte

func (w *writeRecorder) Write(p []byte) (int, error) {
	*w = append(*w, p...)
	return len(p), nil
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	reg := NewRegistry()
	reg.Register(1, func() xdr.Unmarshaler { return &echoArgs{} })
	reg.Register(1, func() xdr.Unmarshaler { return &echoArgs{} })
}

func TestCtxNoopsInRealTimeMode(t *testing.T) {
	ctx := &Ctx{}
	ctx.Sleep(time.Hour) // must not block
	if ctx.Now() != 0 {
		t.Fatal("real-time ctx reports nonzero virtual time")
	}
}

// TestStampMeasuresTheModesClock pins the stopwatch: virtual time under the
// kernel (exactly the slept duration, whatever the host does), wall clock
// in real-time mode.
func TestStampMeasuresTheModesClock(t *testing.T) {
	k := sim.NewKernel(1)
	k.Go("test", func(p *sim.Proc) {
		ctx := &Ctx{P: p}
		p.Sleep(time.Second) // a nonzero start, so Since must subtract it
		start := ctx.Stamp()
		p.Sleep(3 * time.Millisecond)
		if got := ctx.Since(start); got != 3*time.Millisecond {
			t.Errorf("virtual Since = %v, want exactly 3ms", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	ctx := &Ctx{}
	start := ctx.Stamp()
	time.Sleep(2 * time.Millisecond)
	if got := ctx.Since(start); got < 2*time.Millisecond || got > time.Minute {
		t.Errorf("wall-clock Since = %v after a 2ms sleep", got)
	}
}
