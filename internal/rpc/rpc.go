// Package rpc provides the remote-procedure-call layer shared by the NFSv4.1
// and PVFS2 protocol implementations.  One set of handlers and message types
// serves two transports:
//
//   - FabricTransport moves frames across the simnet fabric in
//     virtual time, charging NIC bandwidth for every byte and letting server
//     handlers charge CPU and disk resources.  Every figure (cmd/dpnfs-bench)
//     and the perf/ sim_figures workload run on it.
//   - TCP (tcp.go) speaks the same frames over real sockets on the wall
//     clock: cmd/dpnfs-serve, cmd/pnfs-demo, dpnfs-bench -transport tcp, the
//     loopback integration tests and the other three perf/ workloads.
//
// A Ctx carries the simulated process when running under the kernel; in
// real-time mode Ctx.P is nil and model charges (UseCPU, Sleep) are no-ops.
// Which runtime executes concurrency is decided in this package only:
// exec.go holds the mode-polymorphic primitives every other package uses.
package rpc

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"dpnfs/internal/payload"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// Status is an RPC-level status word.  0 is success; protocol-level errors
// ride inside reply bodies, not here.
type Status uint32

// RPC status values.
const (
	StatusOK Status = iota
	StatusProcUnavail
	StatusGarbageArgs
	StatusSystemErr
	// StatusDown answers a request whose server crashed under it.  No
	// caller sees it: the transports turn it into the *DownError a call to a
	// down node gets.
	StatusDown
)

func (s Status) Error() string {
	switch s {
	case StatusOK:
		return "rpc: ok"
	case StatusProcUnavail:
		return "rpc: procedure unavailable"
	case StatusGarbageArgs:
		return "rpc: garbage arguments"
	case StatusDown:
		return "rpc: server crashed under the request"
	default:
		return fmt.Sprintf("rpc: system error (%d)", uint32(s))
	}
}

// HeaderBytes is the on-wire overhead per call or reply: record mark, xid,
// message type, procedure/status, and a minimal auth field — it is charged
// against NIC bandwidth in simulation and actually written by the TCP
// transport.
const HeaderBytes = 40

// Ctx carries per-call execution context.  Under simulation P is the calling
// (client side) or serving (server side) process; in real-time mode P is nil.
type Ctx struct {
	P        *sim.Proc
	deferred []func()
	// serialized is set by transports that marshal replies onto a wire
	// before running deferred hooks; reference-passing transports leave it
	// false.  retained is set by Retain.  ReplyBuf reads both.
	serialized bool
	retained   bool
}

// Retain marks the call's reply as potentially retained beyond its first
// transmission — e.g. stored in a session replay cache, from which a
// retransmission would re-marshal it — so servers call this before running
// any compound whose reply they may cache.
func (c *Ctx) Retain() { c.retained = true }

// ReplyBuf is the one rule for who owns a bulk reply buffer.  It hands fill
// a buffer of n bytes (contents unspecified) and returns the part fill
// reports it filled — a store read short because the file shrank — as a
// payload owned as the call requires; the unfilled tail, whatever an earlier
// user of the pooled buffer left there, never reaches the reply:
//
//   - a retained reply (Retain) may be re-marshalled long after this call,
//     so it gets a fresh allocation that is never recycled;
//   - on a serializing transport the payload is copied onto the wire before
//     deferred hooks run, so a Defer returns the pooled buffer;
//   - on a reference-passing transport the single consumer gets the pooled
//     buffer itself and returns it through the payload's Release hook
//     (counted in rpc_buf_copies_avoided_total).
//
// A fill error is returned with no payload and nothing left to release.
func (c *Ctx) ReplyBuf(n int64, fill func(buf []byte) (int, error)) (payload.Payload, error) {
	if c.retained {
		buf := make([]byte, n)
		got, err := fill(buf)
		if err != nil {
			return payload.Payload{}, err
		}
		return payload.Real(buf[:got]), nil
	}
	buf := GetBuf(int(n))
	got, err := fill(buf)
	if err != nil {
		PutBuf(buf)
		return payload.Payload{}, err
	}
	if c.serialized {
		c.Defer(func() { PutBuf(buf) })
		return payload.Real(buf[:got]), nil
	}
	bufCopiesAvoided.Add(1)
	return payload.RealPooled(buf[:got], func() { PutBuf(buf) }), nil
}

// Defer registers fn to run after the server has finished transmitting the
// reply.  Storage daemons use it to hold transfer buffers until the data has
// actually left the node, which is what makes a fixed buffer pool a real
// throughput bound.
func (c *Ctx) Defer(fn func()) { c.deferred = append(c.deferred, fn) }

// runDeferred executes deferred hooks in LIFO order, then drops them,
// keeping the slice's capacity for the Ctx's next call.
func (c *Ctx) runDeferred() {
	for i := len(c.deferred) - 1; i >= 0; i-- {
		c.deferred[i]()
	}
	clear(c.deferred)
	c.deferred = c.deferred[:0]
}

// Now returns virtual time under simulation and the zero Time otherwise.
func (c *Ctx) Now() sim.Time {
	if c.P != nil {
		return c.P.Now()
	}
	return 0
}

// Stamp is one reading of a Ctx's clock: virtual time under the simulation
// kernel, wall clock otherwise.  Since, on a Ctx of the same mode, turns it
// into an elapsed time.
type Stamp struct {
	virt sim.Time
	wall time.Time
}

// Stamp reads the mode's clock, starting a latency measurement.
func (c *Ctx) Stamp() Stamp {
	if c.P != nil {
		return Stamp{virt: c.P.Now()}
	}
	return Stamp{wall: time.Now()}
}

// Since returns the time elapsed on the mode's clock since s was taken.
func (c *Ctx) Since(s Stamp) time.Duration {
	if c.P != nil {
		return time.Duration(c.P.Now() - s.virt)
	}
	return time.Since(s.wall)
}

// UseCPU charges d of CPU service on cpu; no-op in real-time mode.
func (c *Ctx) UseCPU(cpu *sim.KServer, d time.Duration) {
	if c.P != nil && cpu != nil && d > 0 {
		cpu.Use(c.P, d)
	}
}

// PerMB scales a per-megabyte CPU cost to n bytes.
func PerMB(d time.Duration, n int64) time.Duration {
	return time.Duration(float64(d) * float64(n) / (1 << 20))
}

// Sleep pauses for d of virtual time; no-op in real-time mode.
func (c *Ctx) Sleep(d time.Duration) {
	if c.P != nil && d > 0 {
		c.P.Sleep(d)
	}
}

// sizeEncPool recycles the scratch encoders behind WireSizeOf's fallback,
// so sizing a message that only encodes costs an encode pass but no
// allocation in steady state.
var sizeEncPool = sync.Pool{New: func() any { return xdr.NewEncoder() }}

// WireSizeOf returns m's encoded size.  A message that declares its wire
// shape (xdr.Codec) is sized by a sizing pass over that declaration, which
// never materializes a payload; any other is encoded into a pooled scratch
// buffer.
func WireSizeOf(m xdr.Marshaler) int64 {
	if c, ok := m.(xdr.Codec); ok {
		return xdr.Size(c)
	}
	e := sizeEncPool.Get().(*xdr.Encoder)
	e.Reset()
	m.MarshalXDR(e)
	n := int64(e.Len())
	sizeEncPool.Put(e)
	return n
}

// Conn issues calls to one remote service.
type Conn interface {
	// Call invokes proc with args, decoding the response into reply.
	// reply must be a pointer to the concrete response type the server
	// produces for proc.  A non-OK RPC status is returned as that Status;
	// transport failures surface as other error types.
	Call(ctx *Ctx, proc uint32, args xdr.Marshaler, reply xdr.Unmarshaler) error
}

// Handler processes one decoded call.  Under the simulated transport req is
// the very value the client passed (treat it as read-only); under TCP it is
// a freshly decoded message.  The returned message is the reply body.
type Handler func(ctx *Ctx, proc uint32, req any) (xdr.Marshaler, Status)

// Registry maps procedure numbers to request constructors so the TCP
// transport can decode call bodies into the same typed requests the
// simulated transport passes by reference.
type Registry struct {
	ctors map[uint32]func() xdr.Unmarshaler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{ctors: make(map[uint32]func() xdr.Unmarshaler)}
}

// Register binds proc to a request constructor.  Duplicate registration
// panics: procedure tables are wired once at startup.
func (r *Registry) Register(proc uint32, ctor func() xdr.Unmarshaler) {
	if _, dup := r.ctors[proc]; dup {
		panic(fmt.Sprintf("rpc: duplicate registration of proc %d", proc))
	}
	r.ctors[proc] = ctor
}

// New constructs an empty request for proc, or nil if unknown.
func (r *Registry) New(proc uint32) xdr.Unmarshaler {
	ctor, ok := r.ctors[proc]
	if !ok {
		return nil
	}
	return ctor()
}

// frame is one simulated call: the request on its way out and, once the
// handler has run, the reply on its way back.  Only the *frame crosses the
// fabric, both ways.  The caller owns it except while the request is out:
// from delivery to the server's inbox until the reply lands on done, the
// server does, and it drops its reference before it sends the reply.  The
// caller clears req and resp when it takes the reply, so an idle frame pins
// no request or reply buffer.
type frame struct {
	proc   uint32
	req    any
	from   *simnet.Node
	status Status
	resp   xdr.Marshaler
	done   *sim.Chan // where the reply lands; empty while the frame is idle
}

// simWire carries calls from one fabric node to a service on another.
// FabricTransport.Dial makes one per (from, node, service) edge and puts it
// behind the node's down switch.
type simWire struct {
	fabric   *simnet.Fabric
	src, dst *simnet.Node
	inbox    *sim.Chan // the service's inbox on dst

	// stats, when set, records wire bytes.
	stats *connStats

	// frames holds the frames of finished calls for reuse.  Every call that
	// sends a request receives exactly one reply (a lossy link delays, it
	// never drops), so a frame is idle again once Call has taken its reply.
	frames []*frame
}

// Call implements Conn over the simulated fabric.  It blocks the calling
// process for the full request/response round trip.  The typed request is
// delivered to the server by reference; only its wire size crosses the NIC
// model, so bulk payloads are never serialized.
func (w *simWire) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	if ctx.P == nil {
		panic("rpc: simulated call without a simulated process")
	}
	var f *frame
	if n := len(w.frames); n > 0 {
		f, w.frames = w.frames[n-1], w.frames[:n-1]
	} else {
		f = &frame{done: sim.NewChan("reply")}
	}
	f.proc, f.req, f.from = proc, args, w.src
	size := WireSizeOf(args) + HeaderBytes
	w.stats.addSent(size)
	w.fabric.Send(ctx.P, w.src, w.dst, w.inbox, f, size)
	f.done.Recv(ctx.P)
	status, resp := f.status, f.resp
	f.req, f.resp = nil, nil
	w.frames = append(w.frames, f)
	if w.stats != nil {
		// Error replies still carry a frame header on the wire; count it so
		// sim and TCP byte accounting agree for identical traffic.
		recv := int64(HeaderBytes)
		if resp != nil {
			recv += WireSizeOf(resp)
		}
		w.stats.addRecv(recv)
	}
	if status != StatusOK {
		return status
	}
	if rep != nil {
		return copyReply(rep, resp)
	}
	return nil
}

// copyReply moves the server's typed response into the caller's reply
// value.  Both sides use the same concrete type, so this is a shallow
// struct copy via reflection.
func copyReply(dst xdr.Unmarshaler, src xdr.Marshaler) error {
	if src == nil {
		return nil
	}
	dv := reflect.ValueOf(dst)
	sv := reflect.ValueOf(src)
	if dv.Kind() != reflect.Pointer || sv.Kind() != reflect.Pointer {
		return fmt.Errorf("rpc: reply types must be pointers (got %T, %T)", dst, src)
	}
	if dv.Elem().Type() != sv.Elem().Type() {
		return fmt.Errorf("rpc: reply type mismatch: caller wants %T, server sent %T", dst, src)
	}
	dv.Elem().Set(sv.Elem())
	return nil
}

// LocalConn is a Conn with no wire, for a client in the same process as the
// server it calls: Call runs the handler on the caller's own flow and copies
// the typed reply, as the fabric delivers it, charging nothing in between.
// A handler that met a crash (StatusDown) comes back as store.ErrUnavailable,
// so a server calling through the conn answers the crash as its own; any
// other non-OK status is returned as that Status.
type LocalConn Handler

// Call implements Conn.
func (h LocalConn) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	resp, status := h(ctx, proc, args)
	switch status {
	case StatusOK:
		return copyReply(rep, resp)
	case StatusDown:
		return store.ErrUnavailable
	}
	return status
}

// Parallel runs fn(i) for i in [0, n) concurrently, each as its own flow of
// ctx's mode with its own Ctx, and waits for all of them.
func Parallel(ctx *Ctx, n int, fn func(ctx *Ctx, i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(ctx, 0)
		return
	}
	name := "par"
	if ctx.P != nil {
		name = ctx.P.Name() + "/par"
	}
	var g Group
	g.Add(ctx, n)
	for i := 0; i < n; i++ {
		i := i
		ctx.Go(name, func(w *Ctx) {
			defer g.Done(w)
			fn(w, i)
		})
	}
	g.Wait(ctx)
}

// simServer is one simulated service: where it runs, its handler, its
// thread bound and the slots of finished handler processes, kept for reuse.
type simServer struct {
	fabric     *simnet.Fabric
	node       *simnet.Node
	handler    Handler
	threads    *sim.Semaphore
	workerName string
	idle       []*slot
}

// slot is what one handler process runs with: the request's frame, a Ctx
// whose deferred slice keeps its capacity from request to request, and the
// process body bound once as a method value.  A slot goes back on the idle
// list only after its deferred hooks have run, with its Ctx cleared.
type slot struct {
	Ctx
	srv *simServer
	f   *frame
	run func(*sim.Proc)
}

// idleSlot returns an idle slot, or a new one.
func (s *simServer) idleSlot() *slot {
	if n := len(s.idle); n > 0 {
		sl := s.idle[n-1]
		s.idle[n-1] = nil
		s.idle = s.idle[:n-1]
		return sl
	}
	sl := &slot{srv: s}
	sl.run = sl.serve
	return sl
}

// serve handles the slot's request as process w and sends the reply.
func (sl *slot) serve(w *sim.Proc) {
	s := sl.srv
	defer s.threads.Release(1)
	f := sl.f
	sl.f = nil
	sl.P = w
	resp, status := s.handler(&sl.Ctx, f.proc, f.req)
	size := int64(HeaderBytes)
	if resp != nil {
		size += WireSizeOf(resp)
	}
	f.status, f.resp = status, resp
	// The caller owns f again once the reply lands, and may reuse it for
	// its next call while the hooks below still run.
	s.fabric.Send(w, s.node, f.from, f.done, f, size)
	sl.runDeferred()
	sl.Ctx = Ctx{deferred: sl.deferred}
	s.idle = append(s.idle, sl)
}
