package pvfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dpnfs/internal/fserr"
	"dpnfs/internal/ioengine"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// ClientConfig describes one PVFS2 client library instance.
type ClientConfig struct {
	Node *simnet.Node
	Meta rpc.Conn
	// Dial returns the conn to the storage daemon with a stable server ID,
	// or nil for an ID the client may not reach.  Files name their daemons
	// through these IDs (the placement's DistParams.Servers); the client
	// dials each the first time a placement names it, so it follows
	// membership changes without being told of them.
	Dial func(id uint32) rpc.Conn
	// Engine holds the striped-I/O engine's options (internal/ioengine).
	// MaxFlight bounds concurrent outstanding I/O requests ("limited request
	// parallelization", paper §5; default 8).  NewClient fixes MaxTransfer
	// at the PVFS2 flow buffer, one daemon transfer buffer of 256 KB ("large
	// transfer buffers"), so every larger extent is split.  Hedge
	// enables hedged duplicate reads for stragglers (writes never hedge).
	// The library has no write-back or readahead — all its I/O is
	// synchronous — so BackgroundShare only matters to a client whose Class
	// is Background.  NewClient fills Name, Issuer and Metrics itself.
	Engine ioengine.Config
	// Class is the QoS class all of this client's striped I/O runs under
	// (zero value = Foreground).  The cluster's rebalance engine sets
	// Background here so migration traffic yields to application I/O.
	Class ioengine.Class
	// Issuer labels this client's engine metrics (empty = "pvfs").
	Issuer string
	// Metrics is the shared observability registry (docs/METRICS.md); nil
	// discards.
	Metrics *metrics.Registry
}

// Client is the PVFS2 client library: stateless, no data cache, no
// write-back — every Read/Write goes to the daemons synchronously, fanned
// out through the shared striped-I/O engine (internal/ioengine).
type Client struct {
	cfg    ClientConfig
	stats  *clientStats
	engine *ioengine.Engine
	retry  ioengine.Policy
	io     daemonConns
	// repaired records extents the replica rung already rewrote, keyed by
	// (data handle, device, device offset).
	repaired ioengine.RepairLedger[repairKey]
}

// repairKey identifies one repaired device extent.
type repairKey struct {
	data   Handle
	dev    int
	devOff int64
}

// NewClient returns a client with defaults applied.  Striped reads and
// writes flow through the I/O engine under rpc.Retry, so they survive a
// daemon outage shorter than its budget; the serial flush path runs each
// call under the same loop.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Engine.MaxFlight <= 0 {
		cfg.Engine.MaxFlight = 8
	}
	cfg.Engine.MaxTransfer = storageBufSize
	stats := newClientStats(cfg.Metrics)
	name := "pvfs-client"
	if cfg.Node != nil {
		name = cfg.Node.Name + "/pvfs"
	}
	issuer := cfg.Issuer
	if issuer == "" {
		issuer = "pvfs"
	}
	eng := cfg.Engine
	eng.Name, eng.Issuer, eng.Metrics = name, issuer, cfg.Metrics
	c := &Client{cfg: cfg, stats: stats, engine: ioengine.New(eng), io: daemonConns{dial: cfg.Dial}}
	c.retry = ioengine.WithRetry(stats.ioRetries.Inc)
	return c
}

// File is an open PVFS2 file reference: the file's handle and the
// placement its I/O goes to, which the client swaps when the file moves
// (Client.placed).
type File struct {
	Handle Handle
	at     atomic.Pointer[openPlacement]
}

// openPlacement is a placement as an open file uses it: its aggregation
// driver, and the daemon conns of its servers in stripe-device order.
type openPlacement struct {
	Placement
	mapper sizedMapper
	io     []rpc.Conn
}

func (c *Client) chargeOp(ctx *rpc.Ctx, bytes int64) {
	ctx.UseCPU(c.cfg.Node.Processor(), clientPerOp+rpc.PerMB(clientPerMB, bytes))
}

// OpenPlaced builds an open file reference from an explicit placement, as
// returned by Lookup/Create/PlacementH, without a metadata round trip.  A
// placement that is no longer the file's answers Stale at its daemons, and
// the reference then follows the file to its current one.
func (c *Client) OpenPlaced(h Handle, p Placement) *File {
	f := &File{Handle: h}
	f.at.Store(c.open(p))
	return f
}

func (c *Client) open(p Placement) *openPlacement {
	return &openPlacement{Placement: p, mapper: p.Dist.Mapper(), io: c.io.get(p.Dist.Servers)}
}

// placed runs op under f's placement.  A daemon answers Stale for objects a
// migration's commit removed — the file moved, and RFC 5661 §13.6's rule
// holds here too: no I/O under a placement that is no longer valid.  So on
// Stale the client reads the placement again with one PLACEMENT-H, swaps it
// into f unless a concurrent operation already did, and runs op once more.
// A placement that did not move leaves op's error standing.
func (c *Client) placed(ctx *rpc.Ctx, f *File, op func(p *openPlacement) error) error {
	p := f.at.Load()
	err := op(p)
	if !errors.Is(err, fserr.ErrStale) {
		return err
	}
	if f.at.Load() == p {
		now, perr := c.PlacementH(ctx, f.Handle)
		if perr != nil || now.Data == p.Data {
			return err
		}
		f.at.CompareAndSwap(p, c.open(now))
	}
	return op(f.at.Load())
}

// daemonConns holds the conns to storage daemons dialed so far, keyed by
// stable server ID; the client library and the metadata server each keep
// one.  A daemon is dialed the first time a placement names it.  A nil conn
// (an ID dial refuses) is never kept, so a later placement may dial again.
type daemonConns struct {
	dial func(id uint32) rpc.Conn
	// mu guards conns: concurrent requests may dial the same daemon.
	mu    sync.Mutex
	conns map[uint32]rpc.Conn
}

// get returns the conns to servers ids, in order; an ID without one has a
// nil conn.  It dials outside mu: two racing dials of one daemon both get a
// working conn, and the later one is kept.
func (d *daemonConns) get(ids []uint32) []rpc.Conn {
	out := make([]rpc.Conn, len(ids))
	d.mu.Lock()
	for i, id := range ids {
		out[i] = d.conns[id]
	}
	d.mu.Unlock()
	for i, id := range ids {
		if out[i] != nil || d.dial == nil {
			continue
		}
		if out[i] = d.dial(id); out[i] != nil {
			d.mu.Lock()
			if d.conns == nil {
				d.conns = make(map[uint32]rpc.Conn)
			}
			d.conns[id] = out[i]
			d.mu.Unlock()
		}
	}
	return out
}

// conn returns the daemon conn for stripe device dev, or an error if the
// placement names a server this client has no conn for.
func (p *openPlacement) conn(dev int) (rpc.Conn, error) {
	if dev < 0 || dev >= len(p.io) || p.io[dev] == nil {
		return nil, fmt.Errorf("pvfs: no conn for device %d of data handle %x", dev, uint64(p.Data))
	}
	return p.io[dev], nil
}

// metaCall is the one way this client talks to the metadata server: charge
// the library's per-op cost, issue the call, and turn the reply's status
// (errno points into rep) into its error.
func (c *Client) metaCall(ctx *rpc.Ctx, proc uint32, args xdr.Marshaler, rep xdr.Unmarshaler, errno *fserr.Errno) error {
	c.chargeOp(ctx, 0)
	if err := c.cfg.Meta.Call(ctx, proc, args, rep); err != nil {
		return err
	}
	return errno.Err()
}

// fromRoot is path as the namespace procedures name it: relative to the
// root handle, so that a verb on any path is one request.
func fromRoot(path string) string { return strings.TrimPrefix(path, "/") }

// Create makes a new file and returns an open reference.
func (c *Client) Create(ctx *rpc.Ctx, path string) (*File, error) {
	h, place, err := c.CreateH(ctx, c.RootHandle(), fromRoot(path))
	if err != nil {
		return nil, err
	}
	return c.OpenPlaced(h, place), nil
}

// Open resolves an existing file.
func (c *Client) Open(ctx *rpc.Ctx, path string) (*File, error) {
	h, place, isDir, err := c.LookupH(ctx, c.RootHandle(), fromRoot(path))
	if err != nil {
		return nil, err
	}
	if isDir {
		return nil, fmt.Errorf("pvfs: %s: %w", path, store.ErrIsDir)
	}
	return c.OpenPlaced(h, place), nil
}

// Write stores data at off.  Sync forces the touched daemons to flush to
// stable storage before returning.  It returns the file's new logical size
// as reconstructed from the daemons' object sizes.
func (c *Client) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload, syncData bool) (int64, error) {
	c.chargeOp(ctx, data.Len())
	if n := data.Len(); n > 0 {
		c.stats.bytesWrite.Add(uint64(n))
	}
	var logical int64
	err := c.placed(ctx, f, func(p *openPlacement) error {
		reqs := c.engine.Prepare(p.mapper.Map(off, data.Len()))
		c.stats.ioRequests.Add(uint64(len(reqs)))
		var mu sync.Mutex // requests run on concurrent processes/goroutines
		logical = 0
		// The library has no write-back: the application is blocked on this
		// write, so it rides the window at the client's configured class
		// (Foreground by default; never hedged — writes are not idempotent
		// against concurrent writers).
		return c.engine.RunWith(ctx, ioengine.RunOpts{Class: c.cfg.Class}, reqs, func(ctx *rpc.Ctx, r stripe.Extent) error {
			objSize, err := p.writeCopy(ctx, r, data.Slice(r.Off-off, r.Len), syncData)
			if err != nil {
				return err
			}
			mu.Lock()
			if end := p.mapper.LogicalEnd(r.Dev, objSize); end > logical {
				logical = end
			}
			mu.Unlock()
			return nil
		}, c.retry)
	})
	return logical, err
}

// writeCopy writes data to extent r's copy on its daemon — an application
// write or the replica rung's rewrite of a bad copy — and returns the
// daemon's new object size.
func (p *openPlacement) writeCopy(ctx *rpc.Ctx, r stripe.Extent, data payload.Payload, syncData bool) (int64, error) {
	conn, err := p.conn(r.Dev)
	if err != nil {
		return 0, err
	}
	var rep IOWriteRep
	args := &IOWriteArgs{Handle: p.Data, Off: r.DevOff, Data: data, Sync: syncData}
	if err := conn.Call(ctx, ProcIOWrite, args, &rep); err != nil {
		return 0, err
	}
	return rep.ObjSize, rep.Errno.Err()
}

// Read fetches up to n bytes at off.  It returns the data (real bytes only
// if wantReal) and the number of logical bytes before EOF.  Each extent's
// read runs under the library's ladder (docs/FAULTS.md "Recovery paths per
// architecture"): the retry loop outermost and, under a replicated
// distribution, the replica rung inside it — so each attempt tries every
// copy once, and a copy that failed its checksum is rewritten exactly once.
func (c *Client) Read(ctx *rpc.Ctx, f *File, off, n int64, wantReal bool) (payload.Payload, int64, error) {
	c.chargeOp(ctx, n)
	var data payload.Payload
	var valid int64
	err := c.placed(ctx, f, func(p *openPlacement) (err error) {
		data, valid, err = c.read(ctx, p, off, n, wantReal)
		return err
	})
	return data, valid, err
}

// read is Read under placement p.
func (c *Client) read(ctx *rpc.Ctx, p *openPlacement, off, n int64, wantReal bool) (payload.Payload, int64, error) {
	seed := off / p.Dist.StripeSize
	reqs := c.engine.Prepare(p.mapper.ReadMap(off, n, seed))
	c.stats.ioRequests.Add(uint64(len(reqs)))
	var buf []byte
	if wantReal {
		buf = make([]byte, n)
	}
	// maxEnd tracks the furthest logical byte any daemon returned; bytes
	// below it that a daemon skipped are holes (zeros).
	var mu sync.Mutex
	var maxEnd int64
	// deliver copies one reply — the primary's, a hedged duplicate's or the
	// replica rung's — into buf and releases it: the reply's buffer (a
	// borrowed TCP frame, a daemon's pooled transfer buffer) goes back to
	// its pool here.
	deliver := func(r stripe.Extent, data payload.Payload) {
		if got := data.Len(); got > 0 {
			// The copy stays under mu: a hedged duplicate writes the same
			// bytes to the same region as its primary.
			mu.Lock()
			if end := r.Off + got; end > maxEnd {
				maxEnd = end
			}
			if wantReal && data.Bytes != nil {
				copy(buf[r.Off-off:], data.Bytes)
			}
			mu.Unlock()
		}
		data.Release()
	}
	policies := []ioengine.Policy{c.retry}
	if rm, ok := p.mapper.(*stripe.Replicated); ok {
		replicas := ioengine.Replicas[repairKey]{
			Map: rm,
			Read: func(ctx *rpc.Ctx, alt stripe.Extent, real bool) (payload.Payload, error) {
				return c.readCopy(ctx, p, alt, wantReal || real)
			},
			Rewrite: func(ctx *rpc.Ctx, bad stripe.Extent, good payload.Payload) error {
				_, err := p.writeCopy(ctx, bad, good, false)
				return err
			},
			Ledger:   &c.repaired,
			Key:      func(bad stripe.Extent) repairKey { return repairKey{p.Data, bad.Dev, bad.DevOff} },
			Repaired: c.stats.readRepairs,
		}
		policies = append(policies, replicas.Policy(deliver))
	}
	// Synchronous read: runs at the client's configured class, and is
	// eligible for hedged duplicates when the engine has hedging enabled
	// (reads are idempotent).
	err := c.engine.RunWith(ctx, ioengine.RunOpts{Class: c.cfg.Class, Hedge: true}, reqs, func(ctx *rpc.Ctx, r stripe.Extent) error {
		data, err := c.readCopy(ctx, p, r, wantReal)
		if err == nil {
			deliver(r, data)
		}
		return err
	}, policies...)
	if err != nil {
		return payload.Payload{}, 0, err
	}
	valid := max(maxEnd-off, 0)
	if valid > 0 {
		c.stats.bytesRead.Add(uint64(valid))
	}
	if wantReal {
		return payload.Real(buf[:valid]), valid, nil
	}
	return payload.Synthetic(valid), valid, nil
}

// readCopy reads extent r's copy from its daemon, verified (ReadCopy), and
// counts a checksum failure.
func (c *Client) readCopy(ctx *rpc.Ctx, p *openPlacement, r stripe.Extent, wantReal bool) (payload.Payload, error) {
	conn, err := p.conn(r.Dev)
	if err != nil {
		return payload.Payload{}, err
	}
	data, err := ReadCopy(ctx, conn, p.Data, r.DevOff, r.Len, wantReal)
	if rpc.RetryableIntegrity(err) {
		c.stats.corruptReads.Inc()
	}
	return data, err
}

// ReadCopy reads n bytes at off of datafile h from one storage daemon and
// verifies the reply: the transport, the daemon's status, then the wire
// checksum when the daemon attached one — damage after the daemon read the
// bytes surfaces as the same store.ErrCorrupt a block-checksum mismatch
// does.  It is the single-copy read under every replica ladder: this
// client's Read and the scrubber's repair fetch.
func ReadCopy(ctx *rpc.Ctx, conn rpc.Conn, h Handle, off, n int64, wantReal bool) (payload.Payload, error) {
	var rep IOReadRep
	args := &IOReadArgs{Handle: h, Off: off, Len: n, WantReal: wantReal}
	if err := conn.Call(ctx, ProcIORead, args, &rep); err != nil {
		return payload.Payload{}, err
	}
	if rep.Errno != 0 {
		return payload.Payload{}, rep.Errno.Err()
	}
	if rep.HasSum && rep.Data.Bytes != nil && xdr.Checksum(rep.Data.Bytes) != rep.Sum {
		rep.Data.Release()
		return payload.Payload{}, store.ErrCorrupt
	}
	return rep.Data, nil
}

// Sync flushes the file's buffered data on each storage daemon holding one
// of its datafiles.  The flushes are issued serially, matching the
// sequential datafile flush in the PVFS2 client's fsync path — one source
// of its poor synchronous small-I/O performance (§6.4.1).  Each flush runs
// under the client's retry loop, the one the engine runs striped I/O under.
func (c *Client) Sync(ctx *rpc.Ctx, f *File) error {
	c.chargeOp(ctx, 0)
	return c.placed(ctx, f, func(p *openPlacement) error {
		for i := range p.io {
			conn, err := p.conn(i)
			if err != nil {
				return err
			}
			var rep IOFlushRep
			if err := rpc.Retry(ctx, c.stats.ioRetries.Inc, func() error {
				return conn.Call(ctx, ProcIOFlush, &IOFlushArgs{Handle: p.Data}, &rep)
			}); err != nil {
				return err
			}
			if rep.Errno != 0 {
				return rep.Errno.Err()
			}
		}
		return nil
	})
}

// GetAttr returns the file's logical size (reconstructed by the MDS from
// every storage daemon).
func (c *Client) GetAttr(ctx *rpc.Ctx, f *File) (int64, error) {
	_, size, _, err := c.GetAttrH(ctx, f.Handle)
	return size, err
}

// Mkdir creates a directory.
func (c *Client) Mkdir(ctx *rpc.Ctx, path string) error {
	_, err := c.MkdirH(ctx, c.RootHandle(), fromRoot(path))
	return err
}

// Remove unlinks a file (removing its datafiles) or an empty directory.
func (c *Client) Remove(ctx *rpc.Ctx, path string) error {
	return c.RemoveH(ctx, c.RootHandle(), fromRoot(path))
}

// ReadDir lists a directory: a lookup of its handle, then a listing of it.
func (c *Client) ReadDir(ctx *rpc.Ctx, path string) ([]string, error) {
	dir, _, _, err := c.LookupH(ctx, c.RootHandle(), fromRoot(path))
	if err != nil {
		return nil, err
	}
	return c.ReadDirH(ctx, dir)
}
