package rpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"dpnfs/internal/xdr"
)

// Wire format (all words big-endian), shared by calls and replies:
//
//	uint32  record length (bytes after this word)
//	uint32  xid
//	uint32  message type (0 = call, 1 = reply)
//	uint32  proc (call) or status (reply)
//	opaque  auth[20] (length word + 20 bytes, a stand-in credential)
//	bytes   XDR-encoded body
//
// The fixed portion totals HeaderBytes (40), so simulated NIC charges match
// what the TCP transport actually writes.
//
// Frames are encoded by pooled gathering encoders (writeFrame) and decoded
// from pooled buffers (bufpool.go): a steady-state connection allocates
// nothing per call, and a bulk payload is never copied in user space on
// either side.  Bodies decode in borrow mode (xdr.Decoder.EnableBorrow), so
// bulk payload fields alias the pooled record instead of copying:
//
//   - Requests: the connection loop keeps the frame alive until the handler
//     returns, so borrows need no reference count — handlers must consume
//     payload bytes before returning (the same read-only contract the
//     reference-passing simulated transport imposes).
//   - Replies: the frame is wrapped in a RefBuf; each borrowed payload
//     retains it and releases through payload.Payload.Release, so the frame
//     returns to the pool when the last consumer is done.

const (
	msgCall  = 0
	msgReply = 1
)

var errConnClosed = errors.New("rpc: connection closed")

// SendError wraps a transport failure that occurred before the request
// reached the wire.  The server never saw the call, so it is safe to retry
// on a fresh connection regardless of idempotence; failures after the
// request was written (lost replies) are NOT wrapped — the server may have
// executed the call.
type SendError struct{ Err error }

func (e *SendError) Error() string { return "rpc: send failed: " + e.Err.Error() }

// Unwrap exposes the underlying transport error.
func (e *SendError) Unwrap() error { return e.Err }

// authPlaceholder is the fixed 20-byte stand-in credential.
var authPlaceholder [20]byte

// frameEncoder is a pooled gathering encoder plus the scratch vector its
// frames are written from.  Header, scalars, length words and padding land
// in the encoder's head buffer, which stays with the pooled value; bulk
// payloads are referenced, never copied (xdr.Encoder.OpaqueRef).
type frameEncoder struct {
	enc  *xdr.Encoder
	bufs [][]byte    // wire-ordered segments of the frame being written
	wv   net.Buffers // the write cursor over bufs (WriteTo consumes it)
}

var frameEncoders = sync.Pool{New: func() any {
	fe := &frameEncoder{enc: xdr.NewEncoder()}
	fe.enc.EnableGather()
	return fe
}}

// maxPooledHead bounds the head buffer a pooled frameEncoder keeps: a frame
// that encoded bulk bytes inline (a synthetic payload's zeros) must not pin
// a transfer-sized buffer under every pooled encoder.
const maxPooledHead = 64 << 10

// writeFrame serializes one frame onto w under mu (frames from concurrent
// calls interleave whole, never byte-wise), returning the frame length.
// Head and by-reference payloads go out as one gathered write (writev on a
// socket); body's payloads must stay alive until writeFrame returns.
func writeFrame(w io.Writer, mu *sync.Mutex, xid, mtype, word uint32, body xdr.Marshaler) (int, error) {
	fe := frameEncoders.Get().(*frameEncoder)
	e := fe.enc
	e.Uint32(0) // record length, patched below
	e.Uint32(xid)
	e.Uint32(mtype)
	e.Uint32(word)
	e.Opaque(authPlaceholder[:])
	if body != nil {
		e.Marshal(body)
	}
	n := e.Len()
	binary.BigEndian.PutUint32(e.Bytes(), uint32(n-4))
	var err error
	if e.Refs() == 0 {
		mu.Lock()
		_, err = w.Write(e.Bytes())
		mu.Unlock()
	} else {
		bufCopiesAvoided.Add(uint64(e.Refs()))
		fe.bufs = e.Buffers(fe.bufs[:0])
		fe.wv = fe.bufs
		mu.Lock()
		_, err = fe.wv.WriteTo(w)
		mu.Unlock()
		clear(fe.bufs)
		fe.wv = nil
	}
	e.Reset()
	if cap(e.Bytes()) <= maxPooledHead {
		frameEncoders.Put(fe)
	}
	return n, err
}

// readFrame reads one frame into a pooled record buffer.  body aliases rec;
// the caller must keep rec alive until every borrow-decoded field in the
// body is dead, then PutBuf it (directly, or through a RefBuf).
func readFrame(r io.Reader) (xid, mtype, word uint32, body, rec []byte, err error) {
	var lenBuf [4]byte
	if _, err = io.ReadFull(r, lenBuf[:]); err != nil {
		return
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n < HeaderBytes-4 || n > HeaderBytes+xdr.MaxOpaque {
		err = fmt.Errorf("rpc: bad record length %d", n)
		return
	}
	rec = GetBuf(int(n))
	if _, err = io.ReadFull(r, rec); err != nil {
		PutBuf(rec)
		rec = nil
		return
	}
	d := xdr.NewDecoder(rec)
	if xid, err = d.Uint32(); err == nil {
		if mtype, err = d.Uint32(); err == nil {
			if word, err = d.Uint32(); err == nil {
				_, err = d.Opaque() // auth
			}
		}
	}
	if err != nil {
		PutBuf(rec)
		rec = nil
		return
	}
	body = rec[len(rec)-d.Remaining():]
	return
}

// TCPClient is a Conn over one real socket with concurrent pipelined calls
// demultiplexed by xid: many requests may be outstanding and replies
// complete out of order.
type TCPClient struct {
	conn    net.Conn
	writeMu sync.Mutex
	stats   *connStats // byte accounting only; nil records nothing

	mu      sync.Mutex
	nextXid uint32
	pending map[uint32]chan tcpReply
	dead    error
}

type tcpReply struct {
	status Status
	body   []byte
	rec    []byte // pooled backing buffer; receiver releases after decode
}

// DialTCP connects to a TCP RPC server.
func DialTCP(addr string) (*TCPClient, error) { return dialTCP(addr, nil) }

// dialTCP connects with an optional stats bundle.  stats must be installed
// before the read loop starts: the loop reads c.stats unsynchronized.
func dialTCP(addr string, stats *connStats) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &TCPClient{conn: conn, stats: stats, pending: make(map[uint32]chan tcpReply)}
	go c.readLoop()
	return c, nil
}

func (c *TCPClient) readLoop() {
	for {
		xid, mtype, word, body, rec, err := readFrame(c.conn)
		if err != nil {
			c.fail(err)
			return
		}
		c.stats.addRecv(int64(len(rec)) + 4) // record body + length word
		if mtype != msgReply {
			PutBuf(rec)
			c.fail(fmt.Errorf("rpc: unexpected message type %d from server", mtype))
			return
		}
		c.mu.Lock()
		ch := c.pending[xid]
		delete(c.pending, xid)
		c.mu.Unlock()
		if ch != nil {
			ch <- tcpReply{status: Status(word), body: body, rec: rec}
		} else {
			PutBuf(rec)
		}
	}
}

func (c *TCPClient) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead == nil {
		c.dead = err
	}
	for xid, ch := range c.pending {
		close(ch)
		delete(c.pending, xid)
	}
}

// Dead reports the connection's terminal error, or nil while usable.
func (c *TCPClient) Dead() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// Close shuts the connection down; outstanding calls fail.
func (c *TCPClient) Close() error {
	c.fail(errConnClosed)
	return c.conn.Close()
}

// Call implements Conn over TCP.  ctx may carry a nil process.  Failures
// before the request hits the wire come back as *SendError (retryable);
// lost replies come back as the connection's terminal error.
func (c *TCPClient) Call(_ *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	ch := make(chan tcpReply, 1)
	c.mu.Lock()
	if c.dead != nil {
		dead := c.dead
		c.mu.Unlock()
		return &SendError{Err: dead}
	}
	c.nextXid++
	xid := c.nextXid
	c.pending[xid] = ch
	c.mu.Unlock()

	n, err := writeFrame(c.conn, &c.writeMu, xid, msgCall, proc, args)
	if err != nil {
		// The socket may hold part of the frame: nothing more can go on it,
		// so the connection dies and the pool redials.
		c.fail(err)
		return &SendError{Err: err}
	}
	c.stats.addSent(int64(n))
	r, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.dead
		c.mu.Unlock()
		return err
	}
	if r.status != StatusOK {
		PutBuf(r.rec)
		return r.status
	}
	if rep == nil {
		PutBuf(r.rec)
		return nil
	}
	// Borrow-mode decode: bulk payload fields alias the pooled record,
	// which stays alive via the RefBuf until the last consumer releases
	// its payload.  Scalar fields are decoded by value as always.
	ref := NewRefBuf(r.rec)
	d := xdr.NewDecoder(r.body)
	d.EnableBorrow(ref)
	err = d.Unmarshal(rep)
	if err == nil && d.Remaining() != 0 {
		err = fmt.Errorf("rpc: %d trailing bytes after decode of %T", d.Remaining(), rep)
	}
	countBorrowed(d.Borrowed())
	ref.Release()
	return err
}

// TCPPool is a Conn backed by a fixed set of pipelined connections to one
// server: calls round-robin across the set, broken connections are redialed
// lazily, and a call that fails at the transport level (never an RPC-level
// Status) is retried once on a fresh connection.
type TCPPool struct {
	addr  string
	stats *connStats // set by TCPTransport.Dial; nil records nothing

	mu     sync.Mutex
	conns  []*TCPClient
	next   int
	closed bool
}

// DefaultPoolConns is the per-server connection count when unspecified.
// Pipelining makes one connection sufficient for correctness; a small
// handful spreads large frames across sockets.
const DefaultPoolConns = 2

// NewTCPPool creates a pool of size lazily-dialed connections to addr.
func NewTCPPool(addr string, size int) *TCPPool {
	if size <= 0 {
		size = DefaultPoolConns
	}
	return &TCPPool{addr: addr, conns: make([]*TCPClient, size)}
}

// pick returns a live connection, redialing a dead or not-yet-dialed slot.
func (p *TCPPool) pick() (*TCPClient, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errConnClosed
	}
	i := p.next % len(p.conns)
	p.next++
	c := p.conns[i]
	if c != nil && c.Dead() == nil {
		return c, nil
	}
	if c != nil {
		c.Close()
	}
	nc, err := dialTCP(p.addr, p.stats)
	if err != nil {
		return nil, err
	}
	p.stats.connect()
	p.conns[i] = nc
	return nc, nil
}

// Call implements Conn.  Only requests that provably never reached the
// wire (*SendError) are retried, on a fresh connection — a lost reply is
// surfaced to the caller, because the server may have executed the call
// and not every operation tolerates re-execution (NFS sessions have a
// replay cache; the PVFS2 protocol does not).  Calls themselves are counted
// by the conn TCPTransport.Dial puts the pool behind.
func (p *TCPPool) Call(ctx *Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if attempt > 0 {
			p.stats.retry()
		}
		c, err := p.pick()
		if err != nil {
			return err
		}
		err = c.Call(ctx, proc, args, rep)
		if err == nil {
			return nil
		}
		var send *SendError
		if !errors.As(err, &send) {
			return err // answered, or lost in flight: not safely retryable
		}
		lastErr = err
	}
	return lastErr
}

// Close closes every connection in the pool.
func (p *TCPPool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for i, c := range p.conns {
		if c != nil {
			c.Close()
			p.conns[i] = nil
		}
	}
	return nil
}

// frameOwner is the xdr.Owner for server-side request decodes: the
// connection loop keeps the request frame alive until the handler returns,
// so borrows need no reference counting.
type frameOwner struct{}

func (frameOwner) Retain()  {}
func (frameOwner) Release() {}

// adaptHandler turns a typed Handler plus a Registry into a wire-level
// handler: decode the call body, dispatch, and hand back the typed reply
// for the connection writer to encode straight into a frame.  Bulk payload
// fields in the request alias the frame (borrow mode); handlers must
// consume them before returning, exactly as they must treat the simulated
// transport's by-reference requests as read-only.
func adaptHandler(reg *Registry, h Handler) func(ctx *Ctx, proc uint32, body []byte) (xdr.Marshaler, Status) {
	return func(ctx *Ctx, proc uint32, body []byte) (xdr.Marshaler, Status) {
		req := reg.New(proc)
		if req == nil {
			return nil, StatusProcUnavail
		}
		d := xdr.NewDecoder(body)
		d.EnableBorrow(frameOwner{})
		if err := d.Unmarshal(req); err != nil || d.Remaining() != 0 {
			return nil, StatusGarbageArgs
		}
		countBorrowed(d.Borrowed())
		resp, status := h(ctx, proc, req)
		if status != StatusOK {
			return nil, status
		}
		return resp, StatusOK
	}
}

// TCPServer serves a Handler on a real listener, one goroutine per
// connection plus one per in-flight request (requests on one connection are
// handled concurrently and reply out of order, like NFS server threads).
type TCPServer struct {
	ln      net.Listener
	handler func(ctx *Ctx, proc uint32, body []byte) (xdr.Marshaler, Status)
	wg      sync.WaitGroup

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// ListenTCP starts serving handler on addr (e.g. "127.0.0.1:0"), decoding
// requests through reg; Addr reports the bound address.
func ListenTCP(addr string, reg *Registry, handler Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{ln: ln, handler: adaptHandler(reg, handler), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	var writeMu sync.Mutex
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		xid, mtype, proc, body, rec, err := readFrame(conn)
		if err != nil {
			return
		}
		if mtype != msgCall {
			PutBuf(rec)
			return
		}
		handlers.Add(1)
		go func(xid, proc uint32, body, rec []byte) {
			defer handlers.Done()
			hctx := &Ctx{serialized: true}
			rep, status := s.handler(hctx, proc, body)
			PutBuf(rec)
			_, _ = writeFrame(conn, &writeMu, xid, msgReply, uint32(status), rep)
			hctx.runDeferred()
		}(xid, proc, body, rec)
	}
}

// Close stops the listener, closes active connections, and waits for
// handlers to drain.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
