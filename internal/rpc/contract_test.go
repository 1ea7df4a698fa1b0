package rpc

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpnfs/internal/metrics"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/xdr"
)

// contractEnv is one transport under the contract: echo served at io0, a
// handler that met a crash (StatusDown) at io1, both dialed from c0, and a
// registry of the transport's metrics.  Flows run on the transport's clock.
type contractEnv struct {
	tr            Transport
	k             *sim.Kernel // nil over TCP: flows are goroutines
	reg           *metrics.Registry
	echo, crashed Conn
}

func newContractEnv(t *testing.T, transport string) *contractEnv {
	e := &contractEnv{reg: metrics.NewRegistry()}
	if transport == "sim" {
		e.k = sim.NewKernel(1)
		f := simnet.NewFabric(e.k)
		for _, n := range []string{"c0", "io0", "io1"} {
			f.AddNode(simnet.NodeConfig{Name: n})
		}
		e.tr = &FabricTransport{Fabric: f, Metrics: e.reg}
	} else {
		tcp := NewTCPTransport(1)
		tcp.Metrics = e.reg
		t.Cleanup(func() { tcp.Close() })
		e.tr = tcp
	}
	crashed := func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
		ctx.Sleep(30 * time.Millisecond) // the handler was under way
		return nil, StatusDown
	}
	for node, h := range map[string]Handler{"io0": echoHandler, "io1": crashed} {
		addr, err := e.tr.Serve(node, "echo", echoRegistry(), h, 4)
		if err != nil {
			t.Fatal(err)
		}
		if tcp, ok := e.tr.(*TCPTransport); ok && tcp.Addrs()[node+"/echo"] != addr {
			t.Errorf("Addrs() = %v does not list %s/echo at %s", tcp.Addrs(), node, addr)
		}
	}
	var err error
	if e.echo, err = e.tr.Dial("c0", "io0", "echo"); err != nil {
		t.Fatal(err)
	}
	if e.crashed, err = e.tr.Dial("c0", "io1", "echo"); err != nil {
		t.Fatal(err)
	}
	return e
}

// run runs fn as n concurrent flows and waits for them.
func (e *contractEnv) run(t *testing.T, n int, fn func(ctx *Ctx, i int)) {
	t.Helper()
	flows := NewFlows(e.k)
	for i := 0; i < n; i++ {
		flows.Go("caller", func(ctx *Ctx) { fn(ctx, i) })
	}
	if err := flows.Wait(); err != nil {
		t.Fatal(err)
	}
}

// counts reads the client-side totals of calls, errors, faults and latency
// samples.
func (e *contractEnv) counts() [4]float64 {
	s := e.reg.Snapshot()
	_, latency := s.HistTotal("rpc_client_call_seconds")
	return [4]float64{s.Total("rpc_client_calls_total"), s.Total("rpc_client_errors_total"),
		s.Total("rpc_client_fault_errors_total"), float64(latency)}
}

// wantDeltas checks that the totals moved from before by want.
func (e *contractEnv) wantDeltas(t *testing.T, before [4]float64, want ...float64) {
	t.Helper()
	after := e.counts()
	for i, name := range []string{"calls", "errors", "faults", "latency samples"} {
		if d := after[i] - before[i]; d != want[i] {
			t.Errorf("%s +%v, want +%v", name, d, want[i])
		}
	}
}

// refused checks that a call through conn failed as a call to the crashed
// node: a retryable DownError naming it, after DownCallTimeout of virtual
// time on the fabric and at once over TCP, counted once in each total.
func (e *contractEnv) refused(t *testing.T, ctx *Ctx, conn Conn, node string) {
	t.Helper()
	before, start := e.counts(), ctx.Stamp()
	err := conn.Call(ctx, procEcho, &echoArgs{N: 1}, nil)
	var de *DownError
	if !errors.As(err, &de) || de.Node != node || !Retryable(err) {
		t.Errorf("call to crashed %s returned %v, want a retryable DownError{%s}", node, err, node)
	}
	if waited := ctx.Since(start); e.k != nil && waited != DownCallTimeout || e.k == nil && waited >= DownCallTimeout {
		t.Errorf("refused call took %v; DownCallTimeout is %v, paid in virtual time only", waited, DownCallTimeout)
	}
	e.wantDeltas(t, before, 1, 1, 1, 1)
}

// TestTransportContract checks what every Transport does, on the simulated
// fabric and on loopback TCP by the same code.  What belongs to one
// transport only is tested next to it: bandwidth charging, handler threads
// and allocations on the fabric; framing, pipelining, pool reconnect,
// send-failure redial and garbage arguments over TCP.
func TestTransportContract(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T, e *contractEnv)
	}{
		{"round_trip", func(t *testing.T, e *contractEnv) {
			e.run(t, 1, func(ctx *Ctx, _ int) {
				var got echoArgs
				err := e.echo.Call(ctx, procEcho, &echoArgs{N: 41, Blob: []byte("payload")}, &got)
				if err != nil || got.N != 42 || string(got.Blob) != "payload" {
					t.Errorf("echo returned %+v, %v", got, err)
				}
			})
		}},
		{"unknown_procedure", func(t *testing.T, e *contractEnv) {
			e.run(t, 1, func(ctx *Ctx, _ int) {
				if err := e.echo.Call(ctx, 999, &echoArgs{}, nil); err != StatusProcUnavail || err.Error() != "rpc: procedure unavailable" {
					t.Errorf("unknown procedure returned %v, want StatusProcUnavail", err)
				}
			})
		}},
		{"unserved_dial", func(t *testing.T, e *contractEnv) {
			// Twice each: a refused dial leaves no inbox behind to serve the next.
			for _, pair := range []string{"io0/nfs-mds", "io9/echo", "io0/nfs-mds", "io9/echo"} {
				node, service, _ := strings.Cut(pair, "/")
				if conn, err := e.tr.Dial("c0", node, service); err == nil || !strings.Contains(err.Error(), "no service registered at "+pair) {
					t.Errorf("dial of %s: conn %v, error %v; want an error naming the pair", pair, conn, err)
				}
			}
		}},
		{"down_node", func(t *testing.T, e *contractEnv) {
			e.run(t, 1, func(ctx *Ctx, _ int) {
				e.tr.SetNodeDown("io0", true)
				e.refused(t, ctx, e.echo, "io0")
				e.tr.SetNodeDown("io0", false)
				var got echoArgs
				if err := e.echo.Call(ctx, procEcho, &echoArgs{N: 5}, &got); err != nil || got.N != 6 {
					t.Errorf("call after restart: %+v, %v", got, err)
				}
			})
		}},
		{"handler_met_crash", func(t *testing.T, e *contractEnv) {
			e.run(t, 1, func(ctx *Ctx, _ int) { e.refused(t, ctx, e.crashed, "io1") })
		}},
		{"concurrent_calls", func(t *testing.T, e *contractEnv) {
			e.run(t, 16, func(ctx *Ctx, i int) {
				blob := fmt.Sprintf("call-%d", i)
				var got echoArgs
				err := e.echo.Call(ctx, procEcho, &echoArgs{N: uint64(i), Blob: []byte(blob)}, &got)
				if err != nil || got.N != uint64(i)+1 || string(got.Blob) != blob {
					t.Errorf("call %d got %d/%q, %v", i, got.N, got.Blob, err)
				}
			})
		}},
		{"down_flipped_in_flight", func(t *testing.T, e *contractEnv) {
			// Flow 0 injects the fault: four times, it takes io0 down until
			// a call was refused, then restores it until a call was answered.
			// The callers call until it is done; each call gets its own reply
			// or a DownError.
			var done atomic.Bool
			var mu sync.Mutex
			calls, refused := 0.0, 0.0
			before := e.counts()
			e.run(t, 9, func(ctx *Ctx, i int) {
				if i == 0 {
					defer done.Store(true)
					// await pauses until total(counts) moves.
					await := func(what string, total func(c [4]float64) float64) bool {
						for v, wait := total(e.counts()), 0; total(e.counts()) == v; wait++ {
							if wait == 1000 {
								t.Errorf("no call %s in 1000 pauses of 1ms", what)
								return false
							}
							ctx.Pause(time.Millisecond)
						}
						return true
					}
					for flip := 0; flip < 4; flip++ {
						e.tr.SetNodeDown("io0", true)
						ok := await("refused", func(c [4]float64) float64 { return c[2] })
						e.tr.SetNodeDown("io0", false)
						if !ok || !await("answered", func(c [4]float64) float64 { return c[3] - c[1] }) {
							return
						}
					}
					return
				}
				for n := uint64(0); !done.Load(); n++ {
					var got echoArgs
					err := e.echo.Call(ctx, procEcho, &echoArgs{N: n}, &got)
					var de *DownError
					mu.Lock()
					calls++
					if errors.As(err, &de) && de.Node == "io0" {
						refused++
					} else if err != nil || got.N != n+1 {
						t.Errorf("call %d: %d, %v; want %d or a DownError{io0}", n, got.N, err, n+1)
					}
					mu.Unlock()
				}
			})
			if refused == 0 || refused == calls {
				t.Errorf("%v of %v calls refused; want some refused and some answered", refused, calls)
			}
			e.wantDeltas(t, before, calls, refused, refused, calls)
		}},
	}
	for _, transport := range []string{"sim", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) { c.run(t, newContractEnv(t, transport)) })
			}
		})
	}
}
