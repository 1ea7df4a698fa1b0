package rpc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/xdr"
)

func TestRetryableClassifiesErrors(t *testing.T) {
	if !Retryable(&DownError{Node: "io1"}) {
		t.Fatal("DownError must be retryable")
	}
	if !Retryable(errWrap{&DownError{Node: "io1"}}) {
		t.Fatal("wrapped DownError must be retryable")
	}
	if Retryable(errors.New("disk on fire")) {
		t.Fatal("arbitrary errors must not be retryable")
	}
	if Retryable(StatusSystemErr) {
		t.Fatal("RPC status errors must not be retryable")
	}
	if Retryable(nil) {
		t.Fatal("nil must not be retryable")
	}
}

type errWrap struct{ inner error }

func (e errWrap) Error() string { return "wrap: " + e.inner.Error() }
func (e errWrap) Unwrap() error { return e.inner }

// flakyConn fails with a retryable DownError for the first failN calls.
type flakyConn struct {
	failN int
	calls int
}

func (c *flakyConn) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	c.calls++
	if c.calls <= c.failN {
		return &DownError{Node: "io1"}
	}
	return nil
}

// retrySim runs fn as the lone process of a fresh kernel and returns the
// virtual time it took: the retry loop's backoffs are kernel sleeps.
func retrySim(t *testing.T, fn func(ctx *Ctx)) time.Duration {
	t.Helper()
	k := sim.NewKernel(1)
	var took sim.Time
	k.Go("caller", func(p *sim.Proc) {
		fn(&Ctx{P: p})
		took = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return time.Duration(took)
}

func TestWithRetryRidesOutOutage(t *testing.T) {
	inner := &flakyConn{failN: 3}
	var retries int
	conn := WithRetry(inner, func() { retries++ })
	took := retrySim(t, func(ctx *Ctx) {
		if err := conn.Call(ctx, 1, nil, nil); err != nil {
			t.Errorf("call through transient outage: %v", err)
		}
	})
	if inner.calls != 4 {
		t.Fatalf("inner called %d times, want 4", inner.calls)
	}
	if retries != 3 {
		t.Fatalf("onRetry fired %d times, want 3", retries)
	}
	// Three backoffs: RetryBase, then doubled twice.
	if want := 7 * RetryBase; took != want {
		t.Fatalf("outage ridden out in %v of virtual time, want %v", took, want)
	}
}

// TestRetryBudgetInVirtualTime pins the retry budget docs/FAULTS.md
// documents: a call to a node that never comes back fails after exactly
// RetryAttempts attempts, each burning DownCallTimeout, with the backoffs
// between them (100, 200, 400, 800, 1600 ms, then 14 × 2 s) — 35.1 s of
// virtual time in all.
func TestRetryBudgetInVirtualTime(t *testing.T) {
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	cl := f.AddNode(simnet.NodeConfig{Name: "client"})
	srv := f.AddNode(simnet.NodeConfig{Name: "server"})
	serveSim(f, srv, "echo", echoHandler, 4)
	sc := &SimTransport{Fabric: f, Src: cl, Dst: srv, Service: "echo"}
	srv.SetDown(true)
	attempts, retries := 0, 0
	conn := WithRetry(connFunc(func(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
		attempts++
		return sc.Call(ctx, proc, args, rep)
	}), func() { retries++ })
	var took time.Duration
	k.Go("caller", func(p *sim.Proc) {
		err := conn.Call(&Ctx{P: p}, procEcho, &echoArgs{N: 1}, nil)
		var de *DownError
		if !errors.As(err, &de) || de.Node != "server" {
			t.Errorf("exhausted retry budget returned %v, want DownError{server}", err)
		}
		took = time.Duration(p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if attempts != 20 || retries != 19 {
		t.Fatalf("%d attempts and %d retries, want 20 and 19", attempts, retries)
	}
	if want := 35100 * time.Millisecond; took != want {
		t.Fatalf("gave up after %v of virtual time, want %v", took, want)
	}
}

func TestWithRetryDoesNotRetryProtocolErrors(t *testing.T) {
	calls := 0
	failing := connFunc(func(*Ctx, uint32, xdr.Marshaler, xdr.Unmarshaler) error {
		calls++
		return StatusSystemErr
	})
	conn := WithRetry(failing, nil)
	took := retrySim(t, func(ctx *Ctx) {
		if err := conn.Call(ctx, 1, nil, nil); !errors.Is(err, StatusSystemErr) {
			t.Errorf("got %v, want StatusSystemErr through unchanged", err)
		}
	})
	if calls != 1 || took != 0 {
		t.Fatalf("non-retryable error: %d calls over %v, want 1 call and no backoff", calls, took)
	}
}

type connFunc func(*Ctx, uint32, xdr.Marshaler, xdr.Unmarshaler) error

func (f connFunc) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	return f(ctx, proc, args, rep)
}

// TestSimTransportDownNode pins the simulated crash semantics: calls to a
// down node burn DownCallTimeout of virtual time and fail with a retryable
// DownError; after SetDown(false) the same conn works again.
func TestSimTransportDownNode(t *testing.T) {
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	cl := f.AddNode(simnet.NodeConfig{Name: "client"})
	srv := f.AddNode(simnet.NodeConfig{Name: "server"})
	serveSim(f, srv, "echo", echoHandler, 4)
	conn := &SimTransport{Fabric: f, Src: cl, Dst: srv, Service: "echo"}

	k.Go("caller", func(p *sim.Proc) {
		ctx := &Ctx{P: p}
		srv.SetDown(true)
		before := p.Now()
		err := conn.Call(ctx, procEcho, &echoArgs{N: 1}, nil)
		var de *DownError
		if !errors.As(err, &de) || de.Node != "server" {
			t.Errorf("call to down node: %v, want DownError{server}", err)
		}
		if waited := time.Duration(p.Now() - before); waited != DownCallTimeout {
			t.Errorf("down call burned %v, want %v", waited, DownCallTimeout)
		}
		srv.SetDown(false)
		var got echoArgs
		if err := conn.Call(ctx, procEcho, &echoArgs{N: 41}, &got); err != nil || got.N != 42 {
			t.Errorf("call after restart: %+v, %v", got, err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPTransportDownNode pins the TCP equivalent: SetNodeDown gates every
// conn dialed to the node with fast-fail retryable errors, and clears.
func TestTCPTransportDownNode(t *testing.T) {
	tr := NewTCPTransport(1)
	defer tr.Close()
	if _, err := tr.Serve("io0", "echo", echoRegistry(), echoHandler, 2); err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial("c0", "io0", "echo")
	if err != nil {
		t.Fatal(err)
	}
	var got echoArgs
	if err := conn.Call(&Ctx{}, procEcho, &echoArgs{N: 1}, &got); err != nil {
		t.Fatal(err)
	}
	tr.SetNodeDown("io0", true)
	err = conn.Call(&Ctx{}, procEcho, &echoArgs{N: 1}, &got)
	var de *DownError
	if !errors.As(err, &de) || de.Node != "io0" {
		t.Fatalf("call to down node: %v, want DownError{io0}", err)
	}
	tr.SetNodeDown("io0", false)
	if err := conn.Call(&Ctx{}, procEcho, &echoArgs{N: 5}, &got); err != nil || got.N != 6 {
		t.Fatalf("call after restart: %+v, %v", got, err)
	}
}

// TestStatusDownIsADownNode: a handler whose server crashed under the
// request answers StatusDown, and both transports turn that into the
// retryable *DownError a call to a down node gets, counted as a fault like
// one.  On the fabric the caller pays the whole DownCallTimeout, as if the
// request had gone unanswered, however long the handler ran first.
func TestStatusDownIsADownNode(t *testing.T) {
	crashed := func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
		ctx.Sleep(30 * time.Millisecond) // the handler was under way
		return nil, StatusDown
	}
	check := func(tr string, reg *metrics.Registry, err error, node string) {
		t.Helper()
		var de *DownError
		if !errors.As(err, &de) || de.Node != node || !Retryable(err) {
			t.Errorf("%s: call answered StatusDown returned %v, want a retryable DownError{%s}", tr, err, node)
		}
		if got := reg.Snapshot().Total("rpc_client_fault_errors_total"); got != 1 {
			t.Errorf("%s: rpc_client_fault_errors_total = %v, want 1", tr, got)
		}
	}

	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	f.AddNode(simnet.NodeConfig{Name: "client"})
	f.AddNode(simnet.NodeConfig{Name: "server"})
	simReg := metrics.NewRegistry()
	fabric := &FabricTransport{Fabric: f, Metrics: simReg}
	if _, err := fabric.Serve("server", "echo", nil, crashed, 4); err != nil {
		t.Fatal(err)
	}
	conn, _ := fabric.Dial("client", "server", "echo")
	k.Go("caller", func(p *sim.Proc) {
		before := p.Now()
		err := conn.Call(&Ctx{P: p}, procEcho, &echoArgs{N: 1}, nil)
		check("sim", simReg, err, "server")
		if waited := time.Duration(p.Now() - before); waited != DownCallTimeout {
			t.Errorf("sim: call answered StatusDown took %v, want %v", waited, DownCallTimeout)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}

	tcpReg := metrics.NewRegistry()
	tcp := NewTCPTransport(1)
	tcp.Metrics = tcpReg
	defer tcp.Close()
	if _, err := tcp.Serve("io0", "echo", echoRegistry(), crashed, 2); err != nil {
		t.Fatal(err)
	}
	conn, err := tcp.Dial("c0", "io0", "echo")
	if err != nil {
		t.Fatal(err)
	}
	check("tcp", tcpReg, conn.Call(&Ctx{}, procEcho, &echoArgs{N: 1}, nil), "io0")
}

// TestDialRefusesAnUnservedService: on both transports a dial to a (node,
// service) pair that nothing serves fails at once, naming the pair, rather
// than handing out a conn whose calls never return; on the fabric the
// refused dial leaves no inbox behind.
func TestDialRefusesAnUnservedService(t *testing.T) {
	k := sim.NewKernel(1)
	f := simnet.NewFabric(k)
	f.AddNode(simnet.NodeConfig{Name: "c0"})
	io0 := f.AddNode(simnet.NodeConfig{Name: "io0"})
	tcp := NewTCPTransport(1)
	defer tcp.Close()
	for name, tr := range map[string]Transport{"sim": &FabricTransport{Fabric: f}, "tcp": tcp} {
		if _, err := tr.Serve("io0", "echo", echoRegistry(), echoHandler, 1); err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]string{{"io0", "nfs-mds"}, {"io9", "echo"}} {
			conn, err := tr.Dial("c0", pair[0], pair[1])
			if want := "no service registered at " + pair[0] + "/" + pair[1]; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: dial of %s/%s: conn %v, error %v; want an error naming the pair", name, pair[0], pair[1], conn, err)
			}
		}
		if _, err := tr.Dial("c0", "io0", "echo"); err != nil {
			t.Errorf("%s: dial of the served io0/echo: %v", name, err)
		}
	}
	if io0.Serves("nfs-mds") {
		t.Error("the refused fabric dial made io0 an nfs-mds inbox")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
