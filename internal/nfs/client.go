package nfs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// ClientConfig wires an NFSv4.1 client (one mount) to its node and servers.
type ClientConfig struct {
	Node *simnet.Node
	MDS  rpc.Conn
	// DialDS opens a connection to a data server by device address.  Nil
	// disables pNFS even if the server offers layouts.
	DialDS func(addr string) rpc.Conn
	Name   string // client identity for EXCHANGE_ID

	WSize, RSize int64 // write/read transfer sizes (paper: 2 MB)
	// MaxReadAhead bounds the readahead window (0 disables readahead).
	MaxReadAhead int64
	// Engine holds the striped-I/O engine's options (internal/ioengine).
	// MaxFlight bounds requests in flight to data servers across all of the
	// mount's concurrent I/O (default 32 — wide enough that the session slot
	// table and flushParallel bind first, as the pre-engine client behaved);
	// MaxTransfer 0 disables extra splitting (chunks are already gathered to
	// WSize/RSize); BackgroundShare caps the window fraction write-back
	// flushes and readahead fills may hold; Hedge enables hedged duplicate
	// READs for straggling foreground requests (writes never hedge).
	// NewClient fills Name, Issuer and Metrics itself.
	Engine ioengine.Config
	// Real makes reads and writes carry actual bytes end to end.
	Real bool
	// Metrics is the shared observability registry (docs/METRICS.md).  Nil
	// gives the mount a private registry, so Metrics() always works.
	Metrics *metrics.Registry
}

// Client is one NFSv4.1 mount: session state, device connections, and the
// page-cache machinery that gives NFS its small-I/O performance (write
// gathering to WSize, readahead to RSize).
type Client struct {
	cfg      ClientConfig
	clientID uint64
	session  uint64

	// Slot table: slots bounds concurrent sessioned compounds; slotMu guards
	// the free slot IDs and per-slot sequence numbers.
	slots     *rpc.Sem
	slotMu    sync.Mutex
	freeSlots []uint32
	slotSeq   []uint32

	pnfsOK bool

	// engine is the striped-I/O scheduler every data-path fan-out rides
	// (internal/ioengine): extent coalescing, the sliding in-flight window,
	// and the per-request policy ladder (layout recovery, MDS fallback).
	engine *ioengine.Engine

	// wbQueue gathers dirty chunks — across all open files — awaiting
	// write-back.  A drain flow takes the whole queue and issues it as one
	// coalesced engine window, so concurrent flushes from many files share
	// a single in-flight budget instead of fanning out per file.
	wbMu    sync.Mutex
	wbQueue []wbChunk
	// flushSlots bounds concurrent drain flows (flushParallel); flushProc
	// names them under the kernel (hoisted: one string per mount, not one
	// per flush).
	flushSlots *rpc.Sem
	flushProc  string

	// stateMu guards devices, active, epoch, layouts, and inodeCache:
	// recovery paths mutate them from parallel extent flows.
	stateMu sync.Mutex
	devices map[pnfs.DeviceID]rpc.Conn
	// active is the device set advertised by the most recent GETDEVICELIST.
	// Conns for devices that have since left the list stay in devices (so
	// layouts at older generations remain readable) but are excluded from
	// replica failover.
	active map[pnfs.DeviceID]bool
	// epoch counts layout invalidations (cluster membership changes); open
	// files compare it to decide whether to refetch their layout.
	epoch uint64

	layouts map[uint64]*pnfs.FileLayout
	// inodeCache retains page caches across open/close per filehandle,
	// with close-to-open consistency: the cache is reused only when the
	// server's change attribute still matches (Linux NFS inode cache).
	inodeCache map[uint64]*inodeState

	// Stats
	RPCs    uint64
	metrics *Metrics

	// Client-cache observability: page-cache and layout-cache hit rates are
	// what separate the NFS architectures from cacheless PVFS2 on re-read
	// (Figure 7) and small-I/O (Figures 6d/6e) workloads.
	pcHits      *metrics.Counter
	pcMisses    *metrics.Counter
	pcCopied    *metrics.Counter
	raChunks    *metrics.Counter
	layoutHits  *metrics.Counter
	slotWaits   *metrics.Histogram
	slotWaitCnt *metrics.Counter

	// Failure-path observability (docs/FAULTS.md): device errors trigger
	// layout eviction and a LAYOUTGET/GETDEVICELIST re-drive; extents that
	// still cannot reach a data server are proxied through the MDS.
	devErrors    *metrics.Counter
	layoutEvicts *metrics.Counter
	layoutRefch  *metrics.Counter
	mdsFallbacks *metrics.Counter

	// Integrity observability (docs/FAULTS.md "Corruption"): corrupt reads
	// detected by block/wire checksums, bounded same-source re-reads, and
	// replica read-repairs that rewrote the bad copy.
	corruptReads *metrics.Counter
	readRepairs  *metrics.Counter

	// repaired makes the replica rung's rewrite exactly-once per extent.
	repaired ioengine.RepairLedger[repairKey]
}

// sessionSlots is the session's slot-table size: the bound on concurrent
// sessioned compounds.
const sessionSlots = 64

// flushParallel bounds concurrent asynchronous write-back flushes.
const flushParallel = 16

// repairKey identifies one repaired device extent.
type repairKey struct {
	fh     uint64
	dev    int
	devOff int64
}

// Metrics returns the mount's per-operation latency/volume table.
func (c *Client) Metrics() *Metrics { return c.metrics }

type inodeState struct {
	change uint64
	pc     *pageCache
}

// NewClient applies defaults; call Mount before use.
func NewClient(cfg ClientConfig) *Client {
	if cfg.WSize <= 0 {
		cfg.WSize = 2 << 20
	}
	if cfg.RSize <= 0 {
		cfg.RSize = 2 << 20
	}
	if cfg.Engine.MaxFlight <= 0 {
		cfg.Engine.MaxFlight = 32
	}
	if cfg.Name == "" {
		cfg.Name = "client"
	}
	reg := orPrivate(cfg.Metrics)
	c := &Client{
		cfg:        cfg,
		devices:    make(map[pnfs.DeviceID]rpc.Conn),
		active:     make(map[pnfs.DeviceID]bool),
		layouts:    make(map[uint64]*pnfs.FileLayout),
		inodeCache: make(map[uint64]*inodeState),
		metrics:    newMetrics(reg),
		pcHits: reg.Counter("nfs_client_pagecache_hits_total",
			"Reads served entirely from the client page cache (no RPC)."),
		pcMisses: reg.Counter("nfs_client_pagecache_misses_total",
			"Reads that fetched at least one chunk from a server."),
		pcCopied: reg.Counter("nfs_client_pagecache_copied_bytes_total",
			"Bytes the page cache copied: every buffered write, and reads or flushes not served as a view of one cached segment."),
		raChunks: reg.Counter("nfs_client_readahead_chunks_total",
			"Chunks fetched asynchronously by sequential readahead."),
		layoutHits: reg.Counter("nfs_client_layout_cache_hits_total",
			"Opens that reused a cached layout instead of LAYOUTGET."),
		slotWaits: reg.Histogram("nfs_client_slot_wait_seconds",
			"Time spent waiting for a free session slot.", metrics.DurationBuckets),
		slotWaitCnt: reg.Counter("nfs_client_slot_acquires_total",
			"Sessioned compounds that acquired a slot."),
		devErrors: reg.Counter("nfs_client_device_errors_total",
			"Data-server call failures observed on the pNFS data path."),
		layoutEvicts: reg.Counter("nfs_client_layout_evictions_total",
			"Cached layouts evicted after a device error."),
		layoutRefch: reg.Counter("nfs_client_layout_refetches_total",
			"Layouts re-fetched (GETDEVICELIST + LAYOUTGET) after eviction."),
		mdsFallbacks: reg.Counter("nfs_client_mds_fallbacks_total",
			"Extents proxied through the MDS after data-server recovery failed."),
		corruptReads: reg.Counter("nfs_client_corrupt_reads_total",
			"READs that returned a data-integrity error (block or wire checksum mismatch)."),
		readRepairs: reg.Counter("nfs_client_read_repairs_total",
			"Corrupt extents rewritten with good bytes fetched from a replica."),
	}
	c.slots = rpc.NewSem(cfg.Name+"/slots", sessionSlots)
	c.flushSlots = rpc.NewSem(cfg.Name+"/flush", flushParallel)
	c.flushProc = cfg.Name + "/flush"
	eng := cfg.Engine
	eng.Name, eng.Issuer, eng.Metrics = cfg.Name+"/engine", "nfs", reg
	c.engine = ioengine.New(eng)
	for i := sessionSlots - 1; i >= 0; i-- {
		c.freeSlots = append(c.freeSlots, uint32(i))
	}
	c.slotSeq = make([]uint32, sessionSlots)
	return c
}

func (c *Client) chargeOp(ctx *rpc.Ctx, nOps int, bytes int64) {
	ctx.UseCPU(c.cfg.Node.Processor(), time.Duration(nOps)*clientPerOp+rpc.PerMB(clientPerMB, bytes))
}

// chargeCache accounts for a page-cache-only operation: a buffered write or
// a cache-hit read (no RPC).
func (c *Client) chargeCache(ctx *rpc.Ctx, bytes int64) {
	ctx.UseCPU(c.cfg.Node.Processor(), cachePerOp+rpc.PerMB(clientPerMB, bytes))
}

// call sends a compound.  Sessioned calls (to the MDS) occupy a slot; data
// server compounds ride sessionless as in the prototype's special-stateid
// data path.
func (c *Client) call(ctx *rpc.Ctx, conn rpc.Conn, sessioned bool, ops ...Op) (*CompoundRep, error) {
	c.chargeOp(ctx, len(ops), 0)
	args := &CompoundArgs{Ops: ops}
	if sessioned && c.session != 0 {
		// Slot-table backpressure is visible here: the wait is virtual time
		// under simulation and wall clock over TCP.
		waitStart := ctx.Stamp()
		c.slots.Acquire(ctx)
		defer c.slots.Release(ctx)
		c.slotWaits.ObserveDuration(ctx.Since(waitStart))
		c.slotWaitCnt.Inc()
		c.slotMu.Lock()
		slot := c.freeSlots[len(c.freeSlots)-1]
		c.freeSlots = c.freeSlots[:len(c.freeSlots)-1]
		c.slotSeq[slot]++
		args.Session = c.session
		args.Slot = slot
		args.Seq = c.slotSeq[slot]
		c.slotMu.Unlock()
		defer func() {
			c.slotMu.Lock()
			c.freeSlots = append(c.freeSlots, slot)
			c.slotMu.Unlock()
		}()
	}
	atomic.AddUint64(&c.RPCs, 1)
	start := ctx.Stamp()
	var rep CompoundRep
	err := conn.Call(ctx, ProcCompound, args, &rep)
	elapsed := ctx.Since(start)
	for _, op := range ops {
		var bytes int64
		switch o := op.(type) {
		case *OpWrite:
			bytes = o.Data.Len()
		case *OpRead:
			bytes = o.Len
		}
		c.metrics.record(op.Num(), elapsed, bytes, err)
	}
	if err != nil {
		return nil, err
	}
	if rep.Status != 0 {
		return &rep, rep.Status.Err()
	}
	// Wire payload verification: the server attached a CRC32C of each READ
	// payload; a mismatch means the bytes were damaged after the server's
	// block-checksum verification, so it feeds the same integrity ladder.
	for _, r := range rep.Results {
		rr, ok := r.(*ResRead)
		if !ok || !rr.HasSum || rr.Data.Bytes == nil {
			continue
		}
		if xdr.Checksum(rr.Data.Bytes) != rr.Sum {
			rr.Data.Release()
			rr.Data = payload.Payload{}
			return &rep, store.ErrCorrupt
		}
	}
	return &rep, nil
}

// Mount establishes the session and discovers pNFS data servers.
func (c *Client) Mount(ctx *rpc.Ctx) error {
	rep, err := c.call(ctx, c.cfg.MDS, false,
		&OpExchangeID{ClientName: c.cfg.Name},
		&OpCreateSession{Slots: sessionSlots},
	)
	if err != nil {
		return fmt.Errorf("nfs: mount handshake: %w", err)
	}
	c.clientID = rep.Results[0].(*ResExchangeID).ClientID
	cs := rep.Results[1].(*ResCreateSession)
	c.session = cs.Session
	// A fresh session starts every slot's sequence at zero.
	c.slotMu.Lock()
	c.slotSeq = make([]uint32, sessionSlots)
	c.slotMu.Unlock()

	rep, err = c.call(ctx, c.cfg.MDS, true, &OpPutRootFH{}, &OpGetDevList{})
	if err != nil {
		// A server without pNFS support fails the GETDEVLIST op; the mount
		// proceeds with proxied I/O through the server.
		if rep == nil || len(rep.Results) < 2 {
			return fmt.Errorf("nfs: mount root: %w", err)
		}
		if _, ok := rep.Results[1].(*ResGetDevList); !ok {
			return fmt.Errorf("nfs: mount root: %w", err)
		}
		return nil
	}
	if dl, ok := rep.Results[1].(*ResGetDevList); ok && dl.Errno == 0 && c.cfg.DialDS != nil {
		c.stateMu.Lock()
		c.active = make(map[pnfs.DeviceID]bool, len(dl.Devices))
		for _, dev := range dl.Devices {
			c.devices[dev.ID] = c.cfg.DialDS(dev.Addr)
			c.active[dev.ID] = true
		}
		c.pnfsOK = len(c.devices) > 0
		c.stateMu.Unlock()
	}
	return nil
}

// PNFS reports whether the mount obtained a device list.
func (c *Client) PNFS() bool { return c.pnfsOK }

// DropCaches discards all retained inode page caches (echo 3 >
// /proc/sys/vm/drop_caches) — benchmark methodology between phases.
func (c *Client) DropCaches() {
	c.stateMu.Lock()
	// Drop the map's reference on every retained cache; caches still shared
	// with an open File survive until that File is closed out of the map.
	for _, st := range c.inodeCache {
		st.pc.release()
	}
	c.inodeCache = make(map[uint64]*inodeState)
	c.stateMu.Unlock()
}

// File is an open file on a mount.
type File struct {
	c       *Client
	Path    string
	fh      uint64
	stateID uint64
	size    int64
	change  uint64

	// layoutMu serializes layout refetches after an epoch bump (membership
	// change); layout/mapper/epoch are re-read by parallel extent flows.
	layoutMu sync.Mutex
	layout   *pnfs.FileLayout
	mapper   stripe.Mapper
	epoch    uint64

	cache *pageCache

	// Async write-back state.  pendMu guards asyncErr and touched: both are
	// written from spawned flush (and readahead) flows.
	pendMu    sync.Mutex
	pending   rpc.Group // queued write-back chunks not yet drained
	asyncErr  error
	touched   map[int]bool // device indices with unstable writes (-1 = MDS)
	committed int64        // size last published via LAYOUTCOMMIT

	// Readahead state.
	seqEnd     int64
	raWindow   int64
	raFrontier int64 // furthest byte already requested by readahead
	inflight   []*raFlight
}

// Size returns the client's view of the file size.
func (f *File) Size() int64 { return f.size }

// setAsyncErr records a background-flush failure for the next Fsync.
func (f *File) setAsyncErr(err error) {
	f.pendMu.Lock()
	if f.asyncErr == nil {
		f.asyncErr = err
	}
	f.pendMu.Unlock()
}

// takeAsyncErr returns and clears the recorded background failure.
func (f *File) takeAsyncErr() error {
	f.pendMu.Lock()
	defer f.pendMu.Unlock()
	err := f.asyncErr
	f.asyncErr = nil
	return err
}

// markTouched records that dev (or the MDS, for dev < 0) holds unstable
// writes that the next Fsync must COMMIT.
func (f *File) markTouched(dev int) {
	f.pendMu.Lock()
	f.touched[dev] = true
	f.pendMu.Unlock()
}

// walkOps builds the lookup chain for a path's directory components.
func walkOps(path string) ([]Op, string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	ops := []Op{&OpPutRootFH{}}
	for _, dir := range parts[:len(parts)-1] {
		if dir == "" {
			continue
		}
		ops = append(ops, &OpLookup{Name: dir})
	}
	return ops, parts[len(parts)-1]
}

// open opens or creates path.
func (c *Client) open(ctx *rpc.Ctx, path string, create bool) (*File, error) {
	ops, name := walkOps(path)
	ops = append(ops, &OpOpen{Name: name, Create: create}, &OpGetAttr{})
	rep, err := c.call(ctx, c.cfg.MDS, true, ops...)
	if err != nil {
		return nil, err
	}
	or := rep.Results[len(rep.Results)-2].(*ResOpen)
	ga := rep.Results[len(rep.Results)-1].(*ResGetAttr)
	// Close-to-open consistency: reuse the inode's page cache if no other
	// client changed the file since we last saw it.  The File takes its own
	// reference; the inode cache keeps one.
	var pc *pageCache
	c.stateMu.Lock()
	if st, ok := c.inodeCache[or.FH]; ok && st.change == ga.Attr.Change {
		pc = st.pc
		pc.retain()
	}
	c.stateMu.Unlock()
	if pc == nil {
		pc = newPageCache(c.cfg.Real, c.pcCopied)
	}
	f := &File{
		c:         c,
		Path:      path,
		fh:        or.FH,
		stateID:   or.StateID,
		size:      ga.Attr.Size,
		change:    ga.Attr.Change,
		cache:     pc,
		touched:   make(map[int]bool),
		committed: ga.Attr.Size,
	}
	if c.pnfsOK {
		if err := f.fetchLayout(ctx); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Open opens an existing file.
func (c *Client) Open(ctx *rpc.Ctx, path string) (*File, error) {
	return c.open(ctx, path, false)
}

// Create opens a file, creating it if absent.
func (c *Client) Create(ctx *rpc.Ctx, path string) (*File, error) {
	return c.open(ctx, path, true)
}

// GetAttr refreshes attributes from the metadata server.
func (c *Client) GetAttr(ctx *rpc.Ctx, f *File) (Attr, error) {
	rep, err := c.call(ctx, c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpGetAttr{})
	if err != nil {
		return Attr{}, err
	}
	at := rep.Results[1].(*ResGetAttr).Attr
	if at.Size > f.size {
		f.size = at.Size
	}
	return at, nil
}

// Truncate sets the file size.
func (c *Client) Truncate(ctx *rpc.Ctx, f *File, size int64) error {
	_, err := c.call(ctx, c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpSetAttr{Size: size})
	if err != nil {
		return err
	}
	f.size = size
	f.committed = size
	f.cache.truncate(size)
	return nil
}

// Mkdir creates a directory.
func (c *Client) Mkdir(ctx *rpc.Ctx, path string) error {
	ops, name := walkOps(path)
	_, err := c.call(ctx, c.cfg.MDS, true, append(ops, &OpCreate{Name: name})...)
	return err
}

// Remove unlinks a file or empty directory.
func (c *Client) Remove(ctx *rpc.Ctx, path string) error {
	ops, name := walkOps(path)
	_, err := c.call(ctx, c.cfg.MDS, true, append(ops, &OpRemove{Name: name})...)
	return err
}

// Rename renames src to dst within directory dirPath.
func (c *Client) Rename(ctx *rpc.Ctx, dirPath, src, dst string) error {
	ops := []Op{&OpPutRootFH{}}
	for _, dir := range strings.Split(strings.Trim(dirPath, "/"), "/") {
		if dir != "" {
			ops = append(ops, &OpLookup{Name: dir})
		}
	}
	_, err := c.call(ctx, c.cfg.MDS, true, append(ops, &OpRename{Src: src, Dst: dst})...)
	return err
}

// ReadDir lists a directory.
func (c *Client) ReadDir(ctx *rpc.Ctx, path string) ([]string, error) {
	ops := []Op{&OpPutRootFH{}}
	for _, dir := range strings.Split(strings.Trim(path, "/"), "/") {
		if dir != "" {
			ops = append(ops, &OpLookup{Name: dir})
		}
	}
	rep, err := c.call(ctx, c.cfg.MDS, true, append(ops, &OpReadDir{})...)
	if err != nil {
		return nil, err
	}
	return rep.Results[len(rep.Results)-1].(*ResReadDir).Names, nil
}
