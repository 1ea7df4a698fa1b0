// Transport abstraction: the same protocol stacks (NFSv4.1 compounds, PVFS2
// requests) run either on the discrete-event simulated fabric — virtual
// time, deterministic, used for regenerating the paper's figures — or over
// real loopback TCP sockets — wall-clock time, used for serving and
// end-to-end integration.  Cluster wiring goes through this interface so any
// architecture can be instantiated on either side without code changes.
package rpc

import (
	"fmt"
	"sync"

	"dpnfs/internal/metrics"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/xdr"
)

// Transport wires RPC endpoints addressed by logical node names.
type Transport interface {
	// Serve registers handler for service on the logical node name,
	// decoding requests through reg (reference-passing transports ignore
	// reg), with at most threads concurrent handlers.  It returns the
	// address peers reach the service at.
	Serve(node, service string, reg *Registry, h Handler, threads int) (addr string, err error)
	// Dial returns a Conn from the logical node from to the service
	// registered under (node, service).  Connections may be shared and must
	// be safe for concurrent calls.
	Dial(from, node, service string) (Conn, error)
	// SetNodeDown marks (or clears) every service on the logical node as
	// crashed (internal/faults): calls to it fail with a retryable
	// *DownError after DownCallTimeout on the mode's clock.
	SetNodeDown(node string, down bool)
	// Close tears down every listener and connection the transport owns.
	Close() error
}

// FabricTransport runs endpoints on a simulated fabric: Serve registers a
// dispatcher process, Dial returns a gated fabric conn.  Node names must
// already exist on the fabric (topology is built by the cluster layer).
type FabricTransport struct {
	Fabric *simnet.Fabric
	// Metrics, when set, instruments every conn and served handler
	// (docs/METRICS.md).  Latencies are virtual time.
	Metrics *metrics.Registry

	downSwitches

	// connMu guards conns, the (src, dst, service) → conn cache.  Conns are
	// stateless beyond their shared stats bundle and frame free list, so
	// every re-dial of the same edge (a client re-mounting per benchmark
	// run re-dials each data server) reuses one conn instead of rebuilding
	// its metric instruments.
	connMu sync.Mutex
	conns  map[string]*gatedConn
}

// Serve implements Transport by starting the service's dispatcher process.
// Each request is handled by its own process, bounded by threads concurrent
// handlers served FIFO (8 when threads is not positive).  The process runs
// on an idle slot of the service, so a request costs the kernel one Proc
// and nothing else.
func (t *FabricTransport) Serve(node, service string, _ *Registry, h Handler, threads int) (string, error) {
	if threads <= 0 {
		threads = 8
	}
	n := t.Fabric.Node(node)
	prefix := node + "/" + service
	s := &simServer{
		fabric:     t.Fabric,
		node:       n,
		handler:    instrumentHandler(t.Metrics, "sim", service, h),
		threads:    sim.NewSemaphore(prefix+"/threads", threads),
		workerName: prefix + "/worker",
	}
	inbox := n.Service(service)
	k := t.Fabric.K
	k.Go(prefix+"/dispatch", func(p *sim.Proc) {
		p.MarkDaemon()
		for {
			f := inbox.Recv(p).(*frame)
			s.threads.Acquire(p, 1)
			sl := s.idleSlot()
			sl.f = f
			k.Go(s.workerName, sl.run)
		}
	})
	return node, nil
}

// Dial implements Transport with a fabric conn between the two nodes,
// shared across repeat dials of the same (from, node, service) edge.  Like
// TCPTransport's, it refuses a (node, service) pair that nothing serves.
func (t *FabricTransport) Dial(from, node, service string) (Conn, error) {
	key := from + "\x00" + node + "\x00" + service
	t.connMu.Lock()
	defer t.connMu.Unlock()
	if c, ok := t.conns[key]; ok {
		return c, nil
	}
	dst := t.Fabric.Lookup(node)
	if dst == nil || !dst.Serves(service) {
		return nil, fmt.Errorf("rpc: no service registered at %s/%s", node, service)
	}
	stats := newConnStats(t.Metrics, "sim", service)
	w := &simWire{fabric: t.Fabric, src: t.Fabric.Node(from), dst: dst, inbox: dst.Service(service), stats: stats}
	c := t.gate(node, w, stats)
	if t.conns == nil {
		t.conns = make(map[string]*gatedConn)
	}
	t.conns[key] = c
	return c, nil
}

// Close implements Transport; the simulation kernel owns process teardown.
func (t *FabricTransport) Close() error { return nil }

// TCPTransport runs endpoints on real loopback sockets: Serve starts a
// TCPServer on an ephemeral port, Dial hands out a per-server shared
// connection pool (pipelined calls, lazy reconnect).  Logical node names
// resolve through the transport's own registry, so the same cluster wiring
// code works unmodified.
type TCPTransport struct {
	// PoolConns is the per-server connection pool size (0 = default).
	PoolConns int
	// Metrics, when set, instruments every pool and served handler
	// (docs/METRICS.md).  Latencies are wall clock.
	Metrics *metrics.Registry

	downSwitches

	mu      sync.Mutex
	servers map[string]*TCPServer // key: node + "/" + service
	addrs   map[string]string     // logical key -> host:port
	pools   map[string]*TCPPool   // one shared pool per server endpoint
	closed  bool
}

// NewTCPTransport returns an empty loopback transport.
func NewTCPTransport(poolConns int) *TCPTransport {
	return &TCPTransport{
		PoolConns: poolConns,
		servers:   make(map[string]*TCPServer),
		addrs:     make(map[string]string),
		pools:     make(map[string]*TCPPool),
	}
}

// Serve implements Transport: it listens on an ephemeral port and bounds
// handler concurrency to threads (the "NFS server threads" knob) across all
// of the service's connections.
func (t *TCPTransport) Serve(node, service string, reg *Registry, h Handler, threads int) (string, error) {
	h = instrumentHandler(t.Metrics, "tcp", service, h)
	if threads > 0 {
		sem := make(chan struct{}, threads)
		inner := h
		h = func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status) {
			sem <- struct{}{}
			defer func() { <-sem }()
			return inner(ctx, proc, req)
		}
	}
	key := node + "/" + service
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", errConnClosed
	}
	if _, dup := t.servers[key]; dup {
		return "", fmt.Errorf("rpc: service %s already registered", key)
	}
	srv, err := ListenTCP("127.0.0.1:0", reg, h)
	if err != nil {
		return "", err
	}
	t.servers[key] = srv
	t.addrs[key] = srv.Addr()
	return srv.Addr(), nil
}

// Dial implements Transport.  Pools are keyed per (from, node, service):
// each client node gets its own pipelined connections to a server, like
// the per-mount connections of a real deployment — a shared pool would
// serialize every client's bulk frames through one socket pair.
func (t *TCPTransport) Dial(from, node, service string) (Conn, error) {
	serverKey := node + "/" + service
	poolKey := from + "->" + serverKey
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, errConnClosed
	}
	if p, ok := t.pools[poolKey]; ok {
		return t.gate(node, p, p.stats), nil
	}
	addr, ok := t.addrs[serverKey]
	if !ok {
		return nil, fmt.Errorf("rpc: no service registered at %s", serverKey)
	}
	p := NewTCPPool(addr, t.PoolConns)
	p.stats = newConnStats(t.Metrics, "tcp", service)
	t.pools[poolKey] = p
	return t.gate(node, p, p.stats), nil
}

// Addrs returns a snapshot of every registered "node/service" -> address
// mapping (cmd/dpnfs-serve prints it as the cluster's export table).
func (t *TCPTransport) Addrs() map[string]string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]string, len(t.addrs))
	for k, v := range t.addrs {
		out[k] = v
	}
	return out
}

// Close implements Transport: client pools close first so in-flight calls
// fail fast, then listeners drain their handlers.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	pools := t.pools
	servers := t.servers
	t.pools = make(map[string]*TCPPool)
	t.servers = make(map[string]*TCPServer)
	t.mu.Unlock()
	for _, p := range pools {
		p.Close()
	}
	var firstErr error
	for _, s := range servers {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
