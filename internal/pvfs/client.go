package pvfs

import (
	"fmt"
	"sync"

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
	IO   []rpc.Conn // one per storage daemon, in device order
	// IOIDs gives the stable server ID of each IO conn.  When empty the
	// conns are assumed positional (IDs 0..len(IO)-1), which matches the
	// legacy static-membership layout.  Files resolve their daemon conns
	// through these IDs via the placement's DistParams.Servers, so a
	// client keeps addressing the right daemons after membership changes.
	IOIDs []uint32
	// Engine holds the striped-I/O engine's options (internal/ioengine).
	// MaxFlight bounds concurrent outstanding I/O requests ("limited request
	// parallelization", paper §5; default 8) and MaxTransfer caps a single
	// request's payload ("large transfer buffers"; default 256 KB).  Hedge
	// enables hedged duplicate reads for stragglers (writes never hedge).
	// The library has no write-back or readahead — all its I/O is
	// synchronous — so BackgroundShare only matters to a client whose Class
	// is Background.  NewClient fills Name, Issuer and Metrics itself.
	Engine ioengine.Config
	// Retry bounds the per-daemon retry loop that rides out injected
	// storage-node crashes (internal/faults): striped I/O to a crashed
	// daemon backs off and retries until the node restarts or the budget
	// runs out.  Zero-valued fields take rpc.DefaultRetryPolicy.
	Retry rpc.RetryPolicy
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
	// mu guards the conn maps: AddServer may race with newFile when the
	// cluster reconfigures while clients are running.
	mu sync.Mutex
	// io/ioSync key the daemon conns by stable server ID.  ioSync wraps
	// each conn in the retry policy for the serial fsync path, which does
	// not ride the engine.
	io     map[uint32]rpc.Conn
	ioSync map[uint32]rpc.Conn
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
// writes flow through the I/O engine under a retry policy, so they survive
// a daemon outage shorter than the retry budget; the serial flush path gets
// the same protection from retry-wrapped conns.
func NewClient(cfg ClientConfig) *Client {
	if cfg.Engine.MaxFlight <= 0 {
		cfg.Engine.MaxFlight = 8
	}
	if cfg.Engine.MaxTransfer <= 0 {
		cfg.Engine.MaxTransfer = 256 << 10 // PVFS2 flow buffer size
	}
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
	c := &Client{cfg: cfg, stats: stats, engine: ioengine.New(eng)}
	c.retry = ioengine.WithRetry(cfg.Retry, stats.ioRetries.Inc)
	c.io = make(map[uint32]rpc.Conn, len(cfg.IO))
	c.ioSync = make(map[uint32]rpc.Conn, len(cfg.IO))
	for i, conn := range cfg.IO {
		id := uint32(i)
		if i < len(cfg.IOIDs) {
			id = cfg.IOIDs[i]
		}
		c.io[id] = conn
		c.ioSync[id] = rpc.WithRetry(conn, cfg.Retry, stats.ioRetries.Inc)
	}
	return c
}

// AddServer registers (or replaces) the conn for a storage daemon by its
// stable server ID, so files placed on a newly joined node resolve their
// conns without rebuilding the client.
func (c *Client) AddServer(id uint32, conn rpc.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.io[id] = conn
	c.ioSync[id] = rpc.WithRetry(conn, c.cfg.Retry, c.stats.ioRetries.Inc)
}

// File is an open PVFS2 file reference.  Data is the handle the datafiles
// live under (it diverges from Handle after a migration); io/ioSync hold the
// daemon conns for the file's placement, in stripe-device order.
type File struct {
	Handle Handle
	Data   Handle
	Dist   DistParams
	mapper stripe.Mapper
	io     []rpc.Conn
	ioSync []rpc.Conn
}

func (c *Client) chargeOp(ctx *rpc.Ctx, bytes int64) {
	ctx.UseCPU(c.cfg.Node.Processor(), clientPerOp+rpc.PerMB(clientPerMB, bytes))
}

func (c *Client) newFile(h, data Handle, dist DistParams) *File {
	if data == 0 {
		data = h
	}
	ids := dist.ServerIDs()
	f := &File{
		Handle: h,
		Data:   data,
		Dist:   dist,
		mapper: dist.Mapper(),
		io:     make([]rpc.Conn, len(ids)),
		ioSync: make([]rpc.Conn, len(ids)),
	}
	c.mu.Lock()
	for i, id := range ids {
		f.io[i] = c.io[id]
		f.ioSync[i] = c.ioSync[id]
	}
	c.mu.Unlock()
	return f
}

// conn returns the file's daemon conn for stripe device dev, or an error if
// the placement names a server this client has no conn for.
func (f *File) conn(dev int) (rpc.Conn, error) {
	if dev < 0 || dev >= len(f.io) || f.io[dev] == nil {
		return nil, fmt.Errorf("pvfs: no conn for device %d of handle %x", dev, uint64(f.Handle))
	}
	return f.io[dev], nil
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

// Create makes a new file and returns an open reference.
func (c *Client) Create(ctx *rpc.Ctx, path string) (*File, error) {
	var rep CreateRep
	if err := c.metaCall(ctx, ProcCreate, &CreateArgs{Path: path}, &rep, &rep.Errno); err != nil {
		return nil, err
	}
	return c.newFile(rep.Handle, rep.Data, rep.Dist), nil
}

// Open resolves an existing file.
func (c *Client) Open(ctx *rpc.Ctx, path string) (*File, error) {
	var rep LookupRep
	if err := c.metaCall(ctx, ProcLookup, &LookupArgs{Path: path}, &rep, &rep.Errno); err != nil {
		return nil, err
	}
	if rep.IsDir {
		return nil, fmt.Errorf("pvfs: %s is a directory", path)
	}
	return c.newFile(rep.Handle, rep.Data, rep.Dist), nil
}

// Write stores data at off.  Sync forces the touched daemons to flush to
// stable storage before returning.  It returns the file's new logical size
// as reconstructed from the daemons' object sizes.
func (c *Client) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload, syncData bool) (int64, error) {
	c.chargeOp(ctx, data.Len())
	reqs := c.engine.Prepare(f.mapper.Map(off, data.Len()))
	c.stats.ioRequests.Add(uint64(len(reqs)))
	if n := data.Len(); n > 0 {
		c.stats.bytesWrite.Add(uint64(n))
	}
	var mu sync.Mutex // requests run on concurrent processes/goroutines
	var logical int64
	// The library has no write-back: the application is blocked on this
	// write, so it rides the window at the client's configured class
	// (Foreground by default; never hedged — writes are not idempotent
	// against concurrent writers).
	err := c.engine.RunWith(ctx, ioengine.RunOpts{Class: c.cfg.Class}, reqs, func(ctx *rpc.Ctx, r stripe.Extent) error {
		objSize, err := f.writeCopy(ctx, r, data.Slice(r.Off-off, r.Len), syncData)
		if err != nil {
			return err
		}
		mu.Lock()
		if end := logicalEnd(f.mapper, r.Dev, objSize); end > logical {
			logical = end
		}
		mu.Unlock()
		return nil
	}, c.retry)
	return logical, err
}

// writeCopy writes data to extent r's copy on its daemon — an application
// write or the replica rung's rewrite of a bad copy — and returns the
// daemon's new object size.
func (f *File) writeCopy(ctx *rpc.Ctx, r stripe.Extent, data payload.Payload, syncData bool) (int64, error) {
	conn, err := f.conn(r.Dev)
	if err != nil {
		return 0, err
	}
	var rep IOWriteRep
	args := &IOWriteArgs{Handle: f.Data, Off: r.DevOff, Data: data, Sync: syncData}
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
	seed := off / f.Dist.StripeSize
	reqs := c.engine.Prepare(f.mapper.ReadMap(off, n, seed))
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
	if rm, ok := f.mapper.(*stripe.Replicated); ok {
		replicas := ioengine.Replicas[repairKey]{
			Map: rm,
			Read: func(ctx *rpc.Ctx, alt stripe.Extent, real bool) (payload.Payload, error) {
				return c.readCopy(ctx, f, alt, wantReal || real)
			},
			Rewrite: func(ctx *rpc.Ctx, bad stripe.Extent, good payload.Payload) error {
				_, err := f.writeCopy(ctx, bad, good, false)
				return err
			},
			Ledger:   &c.repaired,
			Key:      func(bad stripe.Extent) repairKey { return repairKey{f.Data, bad.Dev, bad.DevOff} },
			Repaired: c.stats.readRepairs,
		}
		policies = append(policies, replicas.Policy(deliver))
	}
	// Synchronous read: runs at the client's configured class, and is
	// eligible for hedged duplicates when the engine has hedging enabled
	// (reads are idempotent).
	err := c.engine.RunWith(ctx, ioengine.RunOpts{Class: c.cfg.Class, Hedge: true}, reqs, func(ctx *rpc.Ctx, r stripe.Extent) error {
		data, err := c.readCopy(ctx, f, r, wantReal)
		if err == nil {
			deliver(r, data)
		}
		return err
	}, policies...)
	if err != nil {
		return payload.Payload{}, 0, err
	}
	valid := maxEnd - off
	if valid < 0 {
		valid = 0
	}
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
func (c *Client) readCopy(ctx *rpc.Ctx, f *File, r stripe.Extent, wantReal bool) (payload.Payload, error) {
	conn, err := f.conn(r.Dev)
	if err != nil {
		return payload.Payload{}, err
	}
	data, err := ReadCopy(ctx, conn, f.Data, r.DevOff, r.Len, wantReal)
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
// of its poor synchronous small-I/O performance (§6.4.1).
func (c *Client) Sync(ctx *rpc.Ctx, f *File) error {
	c.chargeOp(ctx, 0)
	for i, conn := range f.ioSync {
		if conn == nil {
			return fmt.Errorf("pvfs: no conn for device %d of handle %x", i, uint64(f.Handle))
		}
		var rep IOFlushRep
		if err := conn.Call(ctx, ProcIOFlush, &IOFlushArgs{Handle: f.Data}, &rep); err != nil {
			return err
		}
		if rep.Errno != 0 {
			return rep.Errno.Err()
		}
	}
	return nil
}

// GetAttr returns the file's logical size (reconstructed by the MDS from
// every storage daemon).
func (c *Client) GetAttr(ctx *rpc.Ctx, f *File) (int64, error) {
	_, size, _, err := c.GetAttrH(ctx, f.Handle)
	return size, err
}

// Truncate sets the file's logical size.
func (c *Client) Truncate(ctx *rpc.Ctx, f *File, size int64) error {
	return c.TruncateH(ctx, f.Handle, size)
}

// Mkdir creates a directory.
func (c *Client) Mkdir(ctx *rpc.Ctx, path string) error {
	var rep MkdirRep
	return c.metaCall(ctx, ProcMkdir, &MkdirArgs{Path: path}, &rep, &rep.Errno)
}

// Remove unlinks a file (removing its datafiles) or an empty directory.
func (c *Client) Remove(ctx *rpc.Ctx, path string) error {
	var rep RemoveRep
	return c.metaCall(ctx, ProcRemove, &RemoveArgs{Path: path}, &rep, &rep.Errno)
}

// ReadDir lists a directory.
func (c *Client) ReadDir(ctx *rpc.Ctx, path string) ([]string, error) {
	var rep ReadDirRep
	if err := c.metaCall(ctx, ProcReadDir, &ReadDirArgs{Path: path}, &rep, &rep.Errno); err != nil {
		return nil, err
	}
	return rep.Names, nil
}
