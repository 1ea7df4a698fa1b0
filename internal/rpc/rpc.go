// Package rpc provides the remote-procedure-call layer shared by the NFSv4.1
// and PVFS2 protocol implementations.  One set of handlers and message types
// serves two transports:
//
//   - SimTransport moves XDR-encoded frames across the simnet fabric in
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
// a buffer of n bytes (contents unspecified; fill overwrites all of it) and
// returns the filled buffer as a payload owned as the call requires:
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
func (c *Ctx) ReplyBuf(n int64, fill func(buf []byte) error) (payload.Payload, error) {
	if c.retained {
		buf := make([]byte, n)
		if err := fill(buf); err != nil {
			return payload.Payload{}, err
		}
		return payload.Real(buf), nil
	}
	buf := GetBuf(int(n))
	if err := fill(buf); err != nil {
		PutBuf(buf)
		return payload.Payload{}, err
	}
	if c.serialized {
		c.Defer(func() { PutBuf(buf) })
		return payload.Real(buf), nil
	}
	bufCopiesAvoided.Add(1)
	return payload.RealPooled(buf, func() { PutBuf(buf) }), nil
}

// Defer registers fn to run after the server has finished transmitting the
// reply.  Storage daemons use it to hold transfer buffers until the data has
// actually left the node, which is what makes a fixed buffer pool a real
// throughput bound.
func (c *Ctx) Defer(fn func()) { c.deferred = append(c.deferred, fn) }

// runDeferred executes deferred hooks in LIFO order.
func (c *Ctx) runDeferred() {
	for i := len(c.deferred) - 1; i >= 0; i-- {
		c.deferred[i]()
	}
	c.deferred = nil
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

// call is the payload carried through the simulated fabric for a request.
type call struct {
	proc    uint32
	req     any
	replyTo *sim.Chan
	from    *simnet.Node
}

// reply is the payload for a response.
type reply struct {
	status Status
	resp   xdr.Marshaler
}

// SimTransport is a Conn bound to (fabric, client node, server node,
// service).  It is cheap; create one per client/server pair.
type SimTransport struct {
	Fabric  *simnet.Fabric
	Src     *simnet.Node
	Dst     *simnet.Node
	Service string

	// stats, when set by FabricTransport.Dial, records per-call latency
	// (virtual time) and wire bytes.
	stats *connStats

	// replies holds the reply channels of finished calls for reuse.  Every
	// call that sends a request receives exactly one reply (a lossy link
	// delays, it never drops), so a channel is empty again once Call has
	// received from it.
	replies []*sim.Chan
}

// Call implements Conn over the simulated fabric.  It blocks the calling
// process for the full request/response round trip.  The typed request is
// delivered to the server by reference; only its wire size crosses the NIC
// model, so bulk payloads are never serialized.
func (t *SimTransport) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	if ctx.P == nil {
		panic("rpc: SimTransport.Call without a simulated process")
	}
	done := t.stats.callStart()
	start := ctx.Now()
	if t.Dst.Down() {
		return t.down(ctx, start, done)
	}
	var rc *sim.Chan
	if n := len(t.replies); n > 0 {
		rc, t.replies = t.replies[n-1], t.replies[:n-1]
	} else {
		rc = sim.NewChan("reply")
	}
	msg := call{proc: proc, req: args, replyTo: rc, from: t.Src}
	size := WireSizeOf(args) + HeaderBytes
	t.stats.addSent(size)
	t.Fabric.Send(ctx.P, t.Src, t.Dst, t.Service, msg, size)
	rm := rc.Recv(ctx.P).(simnet.Message)
	t.replies = append(t.replies, rc)
	r := rm.Payload.(reply)
	if t.stats != nil {
		// Error replies still carry a frame header on the wire; count it so
		// sim and TCP byte accounting agree for identical traffic.
		recv := int64(HeaderBytes)
		if r.resp != nil {
			recv += WireSizeOf(r.resp)
		}
		t.stats.addRecv(recv)
	}
	if r.status == StatusDown {
		return t.down(ctx, start, done)
	}
	if r.status != StatusOK {
		done(time.Duration(ctx.Now()-start), r.status)
		return r.status
	}
	if rep == nil {
		done(time.Duration(ctx.Now()-start), nil)
		return nil
	}
	err := copyReply(rep, r.resp)
	done(time.Duration(ctx.Now()-start), err)
	return err
}

// down fails a call to a crashed node: it went unanswered, or its handler
// met the crash (StatusDown), and surfaces as a retryable failure once the
// RPC timer expires, DownCallTimeout after the call started.
func (t *SimTransport) down(ctx *Ctx, start sim.Time, done func(time.Duration, error)) error {
	if rest := DownCallTimeout - time.Duration(ctx.Now()-start); rest > 0 {
		ctx.P.Sleep(rest)
	}
	err := &DownError{Node: t.Dst.Name}
	t.stats.fault()
	done(time.Duration(ctx.Now()-start), err)
	return err
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
// the typed reply, as SimTransport delivers it, charging nothing in between.
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

// ServerConfig describes a simulated RPC service endpoint.
type ServerConfig struct {
	Fabric  *simnet.Fabric
	Node    *simnet.Node
	Service string
	Threads int // max concurrent handler processes (NFS "server threads")
	Handler Handler
}

// ServeSim starts the dispatcher process for a simulated RPC service.  Each
// request is handled by its own process, bounded by Threads concurrent
// handlers served FIFO.
func ServeSim(cfg ServerConfig) {
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	threads := sim.NewSemaphore(cfg.Node.Name+"/"+cfg.Service+"/threads", cfg.Threads)
	inbox := cfg.Node.Service(cfg.Service)
	workerName := cfg.Node.Name + "/" + cfg.Service + "/worker"
	cfg.Fabric.K.Go(cfg.Node.Name+"/"+cfg.Service+"/dispatch", func(p *sim.Proc) {
		p.MarkDaemon()
		for {
			m := inbox.Recv(p).(simnet.Message)
			c := m.Payload.(call)
			threads.Acquire(p, 1)
			cfg.Fabric.K.Go(workerName, func(w *sim.Proc) {
				defer threads.Release(1)
				hctx := &Ctx{P: w}
				resp, status := cfg.Handler(hctx, c.proc, c.req)
				size := int64(HeaderBytes)
				if resp != nil {
					size += WireSizeOf(resp)
				}
				cfg.Fabric.SendTo(w, cfg.Node, c.from, c.replyTo, reply{status: status, resp: resp}, size)
				hctx.runDeferred()
			})
		}
	})
}
