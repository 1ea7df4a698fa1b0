package pvfs

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/xdr"
)

// replySpy wraps a client's conn to one daemon: it remembers the payload
// bytes of every io-read reply the client was handed, and can refuse reads
// so the replica rung has to fetch the other copy.
type replySpy struct {
	inner  rpc.Conn
	refuse bool
	log    *spyLog
}

type spyLog struct {
	mu      sync.Mutex
	replies [][]byte
	refused int
}

var errSpyRefused = errors.New("spy: read refused")

func (c replySpy) Call(ctx *rpc.Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler) error {
	if proc == ProcIORead && c.refuse {
		c.log.mu.Lock()
		c.log.refused++
		c.log.mu.Unlock()
		return errSpyRefused
	}
	err := c.inner.Call(ctx, proc, args, rep)
	if r, ok := rep.(*IOReadRep); ok && err == nil && len(r.Data.Bytes) > 0 {
		c.log.mu.Lock()
		c.log.replies = append(c.log.replies, r.Data.Bytes)
		c.log.mu.Unlock()
	}
	return err
}

// TestReadReleasesReplyBuffers: Client.Read copies every reply it is handed
// into the caller's buffer and then releases it, so the daemon's pooled
// transfer buffer (by reference on the fabric) or the borrowed reply frame
// (over TCP) goes back to the pool instead of to the GC — for a primary's
// reply (undisturbed) and for the copy the replica rung fetched (the first
// daemon refusing reads) alike.  Under poison-on-put a buffer reads 0xA5
// from the moment it is back in the pool, and the buffer-flow counters show
// the replies really were pool memory.
func TestReadReleasesReplyBuffers(t *testing.T) {
	defer rpc.SetPoisonOnPut(rpc.SetPoisonOnPut(true))
	const stripe, units = 4096, 6
	want := make([]byte, units*stripe)
	for i := range want {
		want[i] = byte(i%249 + 1) // never a run of the poison byte
	}
	dist := DistParams{StripeSize: stripe, Servers: serverIDs(4), Copies: 2}

	// readBack writes the file, reads it back through spied-on conns and
	// returns what the spies saw.
	readBack := func(t *testing.T, ctx *rpc.Ctx, meta rpc.Conn, io []rpc.Conn, refuse bool) *spyLog {
		t.Helper()
		plain := NewClient(ClientConfig{Meta: meta, Dial: dialByID(io)})
		f, err := plain.Create(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plain.Write(ctx, f, 0, payload.Real(want), false); err != nil {
			t.Fatal(err)
		}
		log := &spyLog{}
		spied := make([]rpc.Conn, len(io))
		for i, conn := range io {
			spied[i] = replySpy{inner: conn, refuse: refuse && i == 0, log: log}
		}
		c := NewClient(ClientConfig{Meta: meta, Dial: dialByID(spied)})
		borrowed0, avoided0 := rpc.BufCounters()
		cf, err := c.Open(ctx, "/f")
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := c.Read(ctx, cf, 0, int64(len(want)), true)
		if err != nil || n != int64(len(want)) || !bytes.Equal(got.Bytes, want) {
			t.Fatalf("read: n=%d err=%v, bytes equal=%v", n, err, bytes.Equal(got.Bytes, want))
		}
		if borrowed, avoided := rpc.BufCounters(); borrowed == borrowed0 && avoided == avoided0 {
			t.Error("neither rpc_buf_borrowed_total nor rpc_buf_copies_avoided_total moved: the replies were not pool memory")
		}
		return log
	}
	// inspect runs once nothing else touches the pool any more.
	inspect := func(t *testing.T, log *spyLog, refuse bool) {
		t.Helper()
		if len(log.replies) < 2 || (log.refused > 0) != refuse {
			t.Fatalf("client was handed %d read replies after %d refusals; want both daemons of one copy read, the first refusing only when told to", len(log.replies), log.refused)
		}
		for i, b := range log.replies {
			if !bytes.Equal(b, bytes.Repeat([]byte{0xA5}, len(b))) {
				t.Errorf("reply %d was not released after the copy: its buffer is not back in the pool", i)
			}
		}
	}

	for _, refuse := range []bool{false, true} {
		name := map[bool]string{false: "primary", true: "replica-rung"}[refuse]
		t.Run("fabric/"+name, func(t *testing.T) {
			fs := newTestFS(t, 4, stripe)
			fs.meta.dist = dist
			var io []rpc.Conn
			for _, s := range fs.storage {
				io = append(io, mustDial(fs.tr, "client0", s.Node().Name, ServiceIO))
			}
			meta := mustDial(fs.tr, "client0", "mds", ServiceMeta)
			var log *spyLog
			fs.run(t, func(ctx *rpc.Ctx) { log = readBack(t, ctx, meta, io, refuse) })
			inspect(t, log, refuse)
		})
		t.Run("tcp/"+name, func(t *testing.T) {
			var closers []func() error
			serve := func(reg *rpc.Registry, h rpc.Handler) rpc.Conn {
				srv, err := rpc.ListenTCP("127.0.0.1:0", reg, h)
				if err != nil {
					t.Fatal(err)
				}
				pool := rpc.NewTCPPool(srv.Addr(), 1)
				closers = append(closers, pool.Close, srv.Close)
				return pool
			}
			var io []rpc.Conn
			for i := 0; i < 4; i++ {
				io = append(io, serve(IORegistry(), NewStorageServer(StorageConfig{}).Handle))
			}
			meta := serve(MetaRegistry(), NewMetaServer(MetaConfig{Dist: dist, Dial: dialByID(io)}).Handle)
			log := readBack(t, &rpc.Ctx{}, meta, io, refuse)
			// Closing waits for the handlers, whose deferred hooks return
			// the daemons' own buffers to the shared pool.
			for _, c := range closers {
				c()
			}
			inspect(t, log, refuse)
		})
	}
}

// shrinkingStore truncates file id to size right after the next GetAttr of
// it: an object that shrinks between the daemon's size check and its read.
type shrinkingStore struct {
	store.Store
	id    store.FileID
	size  int64
	armed bool
}

func (s *shrinkingStore) GetAttr(id store.FileID) (store.Attr, error) {
	at, err := s.Store.GetAttr(id)
	if s.armed && id == s.id {
		s.armed = false
		if err := s.Store.Truncate(id, s.size); err != nil {
			return store.Attr{}, err
		}
	}
	return at, err
}

// TestReadOfShrinkingObjectEndsAtTheStoreCount: an object that shrinks
// between IO-READ's GetAttr and its store read reads short, and the reply
// ends where the read did, at EOF.  Before, the rest of the pooled transfer
// buffer went out as object data — under poison-on-put, bytes another
// request had returned to the pool.
func TestReadOfShrinkingObjectEndsAtTheStoreCount(t *testing.T) {
	defer rpc.SetPoisonOnPut(rpc.SetPoisonOnPut(true))
	const size, shrunk = 10000, 4000
	shrinking := &shrinkingStore{Store: mem.New()}
	s := NewStorageServer(StorageConfig{Store: shrinking})
	const h = Handle(7)
	if e := daemonCreate(s, h); e != fserr.OK {
		t.Fatal(e)
	}
	content := bytes.Repeat([]byte{0x11}, size)
	if rep := s.Write(&rpc.Ctx{}, &IOWriteArgs{Handle: h, Data: payload.Real(content)}, store.BlockSums{}); rep.Errno != fserr.OK {
		t.Fatal(rep.Errno)
	}
	id, e := s.object(h)
	if e != fserr.OK {
		t.Fatal(e)
	}
	shrinking.id = id
	shrinking.size, shrinking.armed = shrunk, true
	rpc.PutBuf(rpc.GetBuf(size)) // a recycled, poisoned buffer for the reply
	rep, _ := s.Read(&rpc.Ctx{}, &IOReadArgs{Handle: h, Len: size, WantReal: true})
	if rep.Errno != fserr.OK {
		t.Fatal(rep.Errno)
	}
	defer rep.Data.Release()
	if rep.Data.Len() != shrunk || !rep.Eof || !bytes.Equal(rep.Data.Bytes, content[:shrunk]) {
		t.Fatalf("read of an object shrunk to %d: %d bytes, eof %v, content match %v",
			shrunk, rep.Data.Len(), rep.Eof, bytes.Equal(rep.Data.Bytes[:min(len(rep.Data.Bytes), shrunk)], content[:shrunk]))
	}
}
