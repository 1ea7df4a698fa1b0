package nfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dpnfs/internal/ioengine"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
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
	Costs  Costs
	Name   string // client identity for EXCHANGE_ID

	WSize, RSize int64 // write/read transfer sizes (paper: 2 MB)
	Slots        uint32
	// MaxReadAhead bounds the readahead window (0 disables readahead).
	MaxReadAhead int64
	// FlushParallel bounds concurrent asynchronous write-back flushes.
	FlushParallel int
	// Engine holds the striped-I/O engine's options (internal/ioengine).
	// MaxFlight bounds requests in flight to data servers across all of the
	// mount's concurrent I/O (default 32 — wide enough that the session slot
	// table and FlushParallel bind first, as the pre-engine client behaved);
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
	// flushSlots bounds concurrent drain flows (FlushParallel); flushProc
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

	// repaired makes read-repair exactly-once per extent.
	repaired ioengine.RepairLedger[repairKey]
}

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
	if cfg.Slots == 0 {
		cfg.Slots = 64
	}
	if cfg.FlushParallel <= 0 {
		cfg.FlushParallel = 16
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
	c.slots = rpc.NewSem(cfg.Name+"/slots", int(cfg.Slots))
	c.flushSlots = rpc.NewSem(cfg.Name+"/flush", cfg.FlushParallel)
	c.flushProc = cfg.Name + "/flush"
	eng := cfg.Engine
	eng.Name, eng.Issuer, eng.Metrics = cfg.Name+"/engine", "nfs", reg
	c.engine = ioengine.New(eng)
	for i := int(cfg.Slots) - 1; i >= 0; i-- {
		c.freeSlots = append(c.freeSlots, uint32(i))
	}
	c.slotSeq = make([]uint32, cfg.Slots)
	return c
}

func (c *Client) chargeOp(ctx *rpc.Ctx, nOps int, bytes int64) {
	var cpu *sim.KServer
	if c.cfg.Node != nil {
		cpu = c.cfg.Node.CPU
	}
	ctx.UseCPU(cpu, time.Duration(nOps)*c.cfg.Costs.ClientPerOp+perMB(c.cfg.Costs.ClientPerMB, bytes))
}

// chargeCache accounts for a page-cache-only operation: a buffered write or
// a cache-hit read (no RPC).
func (c *Client) chargeCache(ctx *rpc.Ctx, bytes int64) {
	var cpu *sim.KServer
	if c.cfg.Node != nil {
		cpu = c.cfg.Node.CPU
	}
	ctx.UseCPU(cpu, c.cfg.Costs.CachePerOp+perMB(c.cfg.Costs.ClientPerMB, bytes))
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
		&OpCreateSession{Slots: c.cfg.Slots},
	)
	if err != nil {
		return fmt.Errorf("nfs: mount handshake: %w", err)
	}
	c.clientID = rep.Results[0].(*ResExchangeID).ClientID
	cs := rep.Results[1].(*ResCreateSession)
	c.session = cs.Session
	// A fresh session starts every slot's sequence at zero.
	c.slotMu.Lock()
	c.slotSeq = make([]uint32, c.cfg.Slots)
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

// device returns the conn for a device ID (nil if unknown).
func (c *Client) device(id pnfs.DeviceID) rpc.Conn {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.devices[id]
}

// deviceActive reports whether id appears in the most recent device list
// and has a conn — the liveness test replica failover uses so it never
// retries a departed device.
func (c *Client) deviceActive(id pnfs.DeviceID) bool {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.active[id] && c.devices[id] != nil
}

// refreshDevices re-drives GETDEVICELIST, dials any newly advertised
// device, and replaces the active set.  Conns for departed devices are
// retained so data written under older layout generations stays reachable.
func (c *Client) refreshDevices(ctx *rpc.Ctx) error {
	if c.cfg.DialDS == nil {
		return fmt.Errorf("nfs: no data-server dialer")
	}
	rep, err := c.call(ctx, c.cfg.MDS, true, &OpPutRootFH{}, &OpGetDevList{})
	if err != nil {
		return err
	}
	dl, ok := rep.Results[1].(*ResGetDevList)
	if !ok || dl.Errno != 0 {
		return fmt.Errorf("nfs: GETDEVICELIST refresh failed")
	}
	c.stateMu.Lock()
	c.active = make(map[pnfs.DeviceID]bool, len(dl.Devices))
	for _, dev := range dl.Devices {
		if c.devices[dev.ID] == nil {
			c.devices[dev.ID] = c.cfg.DialDS(dev.Addr)
		}
		c.active[dev.ID] = true
	}
	c.stateMu.Unlock()
	return nil
}

// InvalidateLayouts discards every cached layout and bumps the layout
// epoch, so each open file refetches its layout (and the device list)
// before its next striped I/O.  The cluster calls this after a membership
// change regenerates layouts at a new generation.
func (c *Client) InvalidateLayouts() {
	c.stateMu.Lock()
	n := len(c.layouts)
	c.layouts = make(map[uint64]*pnfs.FileLayout)
	c.epoch++
	c.stateMu.Unlock()
	for i := 0; i < n; i++ {
		c.layoutEvicts.Inc()
	}
}

func (c *Client) epochNow() uint64 {
	c.stateMu.Lock()
	defer c.stateMu.Unlock()
	return c.epoch
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

type raFlight struct {
	ext  extent
	done bool
	wg   rpc.Group
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

// fetchLayout gets (or reuses) the file's layout.  Layouts apply to the
// whole file and stay valid for the lifetime of the inode (paper §5) —
// unless a device error evicts them (recoverLayout).
func (f *File) fetchLayout(ctx *rpc.Ctx) error {
	f.c.stateMu.Lock()
	l, ok := f.c.layouts[f.fh]
	epoch := f.c.epoch
	f.c.stateMu.Unlock()
	if ok {
		f.c.layoutHits.Inc()
		f.layout = l
	} else {
		rep, err := f.c.call(ctx, f.c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpLayoutGet{})
		if err != nil {
			return err
		}
		lg := rep.Results[1].(*ResLayoutGet)
		f.layout = &lg.Layout
		f.c.stateMu.Lock()
		f.c.layouts[f.fh] = f.layout
		f.c.stateMu.Unlock()
	}
	m, err := f.layout.Mapper()
	if err != nil {
		return fmt.Errorf("nfs: layout for %s: %w", f.Path, err)
	}
	f.mapper = m
	f.epoch = epoch
	for _, id := range f.layout.Devices {
		if f.c.device(id) == nil {
			// A device this layout references may have joined after mount:
			// refresh the device list once before giving up.
			if err := f.c.refreshDevices(ctx); err != nil || f.c.device(id) == nil {
				return fmt.Errorf("nfs: layout references unknown device %d", id)
			}
		}
	}
	return nil
}

// ensureLayout refetches the file's layout when the client's layout epoch
// moved since the layout was fetched (a membership change invalidated it).
func (f *File) ensureLayout(ctx *rpc.Ctx) error {
	if f.mapper == nil || f.epoch == f.c.epochNow() {
		return nil
	}
	f.layoutMu.Lock()
	defer f.layoutMu.Unlock()
	if f.epoch == f.c.epochNow() {
		return nil
	}
	return f.fetchLayout(ctx)
}

// recoverLayout handles a data-server failure: it evicts the file's cached
// layout, re-drives GETDEVICELIST (re-dialing every advertised device) and
// LAYOUTGET, and returns the fresh layout for a single retry.  A nil return
// means recovery itself failed — the caller then proxies the extent through
// the MDS, the protocol's guaranteed-correct fallback path (paper §4).
func (c *Client) recoverLayout(ctx *rpc.Ctx, f *File) *pnfs.FileLayout {
	c.stateMu.Lock()
	delete(c.layouts, f.fh)
	c.stateMu.Unlock()
	c.layoutEvicts.Inc()
	_ = c.refreshDevices(ctx) // best effort: LAYOUTGET below decides
	rep, err := c.call(ctx, c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpLayoutGet{})
	if err != nil {
		return nil
	}
	lg := rep.Results[1].(*ResLayoutGet)
	l := lg.Layout
	if _, err := l.Mapper(); err != nil {
		return nil
	}
	c.stateMu.Lock()
	for _, id := range l.Devices {
		if _, ok := c.devices[id]; !ok {
			c.stateMu.Unlock()
			return nil
		}
	}
	c.layouts[f.fh] = &l
	c.stateMu.Unlock()
	c.layoutRefch.Inc()
	return &l
}

// Write buffers data at off in the page cache and asynchronously flushes
// full WSize runs (the write gathering that keeps small-block workloads at
// large-block speed, Figures 6d/6e).
func (c *Client) Write(ctx *rpc.Ctx, f *File, off int64, data payload.Payload) error {
	c.chargeCache(ctx, data.Len())
	f.cache.write(off, data)
	if end := off + data.Len(); end > f.size {
		f.size = end
	}
	for {
		run, ok := f.cache.dirtyRunAtLeast(c.cfg.WSize)
		if !ok {
			break
		}
		chunk := extent{run.Off, run.Off + c.cfg.WSize}
		f.cache.clean(chunk.Off, chunk.End)
		c.flushAsync(ctx, f, chunk)
	}
	return nil
}

// wbChunk is one gathered dirty run awaiting write-back: the owning file,
// its logical offset, a snapshot of the cache content (a view of the cached
// segment when the run lies inside one, so later overwrites cannot change
// what is sent).  Its owner's Fsync waits on f.pending until it is drained.
type wbChunk struct {
	f    *File
	off  int64
	data payload.Payload
}

// flushAsync queues one chunk for write-back and spawns a drain flow that
// takes *every* queued chunk, across all files, and issues them as a single
// coalesced engine run.  Flows are bounded by FlushParallel; a flow that
// finds the queue already drained by a sibling exits immediately.  Failures
// surface through the owning file's setAsyncErr for its next Fsync.
func (c *Client) flushAsync(ctx *rpc.Ctx, f *File, chunk extent) {
	wb := wbChunk{f: f, off: chunk.Off, data: f.cache.slice(chunk.Off, chunk.len())}
	f.pending.Add(ctx, 1)
	c.wbMu.Lock()
	c.wbQueue = append(c.wbQueue, wb)
	c.wbMu.Unlock()
	ctx.Go(c.flushProc, func(ctx *rpc.Ctx) {
		c.flushSlots.Acquire(ctx)
		defer c.flushSlots.Release(ctx)
		c.drainWriteBack(ctx)
	})
}

// drainWriteBack empties the write-back queue and sends everything in one
// engine window: each chunk's extents are coalesced against themselves
// (extents carry no owner tag, so cross-file runs must never merge) and the
// per-chunk lists are concatenated into a single RunIndexed.  A failing
// extent is recorded on its owning file and absorbed, so one file's error
// cannot starve another file's flush.  Chunk payloads are released once the
// batch completes.
func (c *Client) drainWriteBack(ctx *rpc.Ctx) {
	c.wbMu.Lock()
	chunks := c.wbQueue
	c.wbQueue = nil
	c.wbMu.Unlock()
	if len(chunks) == 0 {
		return
	}
	var reqs []stripe.Extent
	var fns []ioengine.DoFunc
	var owners []*File
	for _, wb := range chunks {
		f, data := wb.f, wb.data
		if err := f.ensureLayout(ctx); err != nil {
			f.setAsyncErr(err)
			continue
		}
		if f.mapper == nil {
			// No layout: the whole chunk goes through the MDS as one
			// pseudo-extent (Dev -1, the engine's MDS marker).
			reqs = append(reqs, stripe.Extent{Dev: -1, Off: wb.off, Len: data.Len()})
			fns = append(fns, func(ctx *rpc.Ctx, e stripe.Extent) error {
				_, err := c.call(ctx, c.cfg.MDS, true,
					&OpPutFH{FH: f.fh},
					&OpWrite{StateID: f.stateID, Off: e.Off, Data: data},
				)
				if err == nil {
					f.markTouched(-1)
				}
				return err
			})
			owners = append(owners, f)
			continue
		}
		fn := c.chunkLadder(f, wb.off, data)
		for _, e := range c.engine.Prepare(f.mapper.Map(wb.off, data.Len())) {
			reqs = append(reqs, e)
			fns = append(fns, fn)
			owners = append(owners, f)
		}
	}
	if len(reqs) > 0 {
		// Write-back rides the window as Background: gathered flushes must
		// never crowd out a blocked application read (docs/ARCHITECTURE.md
		// QoS).  Per-extent errors were already absorbed onto their owners,
		// so the run itself cannot fail.
		_ = c.engine.RunIndexed(ctx, ioengine.RunOpts{Class: ioengine.Background}, reqs,
			func(ctx *rpc.Ctx, i int, r stripe.Extent) error {
				if err := fns[i](ctx, r); err != nil {
					owners[i].setAsyncErr(err)
				}
				return nil
			})
	}
	for _, wb := range chunks {
		wb.data.Release()
		wb.f.pending.Done(ctx)
	}
}

// chunkLadder builds the per-extent dispatch for one gathered chunk:
// striped writes under the file's pNFS layout behind a two-rung policy
// ladder.  A device error evicts the cached layout, re-drives
// GETDEVICELIST + LAYOUTGET, and retries once against the fresh layout
// (the recalled-layout path, paper §4); extents that still cannot reach a
// data server are proxied through the metadata server, which writes into
// the parallel file system on the client's behalf.
func (c *Client) chunkLadder(f *File, off int64, data payload.Payload) ioengine.DoFunc {
	layout := f.layout
	chunk := func(e stripe.Extent) payload.Payload { return data.Slice(e.Off-off, e.Len) }
	write := func(ctx *rpc.Ctx, l *pnfs.FileLayout, e stripe.Extent) error {
		_, err := c.dsWrite(ctx, f, l, e, chunk(e))
		return err
	}
	primary := func(ctx *rpc.Ctx, e stripe.Extent) error {
		err := write(ctx, layout, e)
		if err == nil {
			f.markTouched(e.Dev)
		}
		return err
	}
	// A retry that had to remap commits through the MDS (settled(-1)): the
	// touched-device indices no longer line up with the fresh geometry.
	recovery := c.recoveryRung(f, layout,
		func(m stripe.Mapper, e stripe.Extent) []stripe.Extent { return m.Map(e.Off, e.Len) },
		write, f.markTouched)
	mdsProxy := ioengine.WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, _ error) error {
		c.mdsFallbacks.Inc()
		_, err := c.call(ctx, c.cfg.MDS, true,
			&OpPutFH{FH: f.fh},
			&OpWrite{StateID: f.stateID, Off: e.Off, Data: chunk(e)},
		)
		if err == nil {
			f.markTouched(-1)
		}
		return err
	})
	// Same composition order RunWith would apply to (primary, mdsProxy,
	// recovery): try the layout's data server, recover the layout on error,
	// and proxy through the MDS as the last rung.
	return mdsProxy(recovery(primary))
}

// recoveryRung builds the layout-recovery rung the write and read ladders
// share.  A device error evicts the file's cached layout, re-drives
// GETDEVICELIST + LAYOUTGET, and retries the extent once through op — the
// ladder's data-server operation — under the fresh layout.  When that layout
// was regenerated under a new membership (its Gen moved past layout's) the
// extent's device index is meaningless under the new geometry, so remap maps
// the logical range through the fresh mapper and op runs on each sub-extent.
// settled, when non-nil, learns where the retried extent landed: its device
// index, or -1 (the MDS) after a remap.  Failures of recovery itself return
// the original error so the next rung (the MDS proxy) takes over.
func (c *Client) recoveryRung(f *File, layout *pnfs.FileLayout,
	remap func(m stripe.Mapper, e stripe.Extent) []stripe.Extent,
	op func(ctx *rpc.Ctx, l *pnfs.FileLayout, e stripe.Extent) error,
	settled func(dev int)) ioengine.Policy {
	return ioengine.WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, err error) error {
		c.devErrors.Inc()
		l2 := c.recoverLayout(ctx, f)
		if l2 == nil {
			return err
		}
		dev := e.Dev
		exts := []stripe.Extent{e}
		if l2.Gen != layout.Gen {
			m2, merr := l2.Mapper()
			if merr != nil {
				return err
			}
			dev, exts = -1, remap(m2, e)
		} else if e.Dev >= len(l2.Devices) {
			return err
		}
		for _, se := range exts {
			if err2 := op(ctx, l2, se); err2 != nil {
				return err2
			}
		}
		if settled != nil {
			settled(dev)
		}
		return nil
	})
}

// dsWrite sends one extent's WRITE to its data server under layout l.
func (c *Client) dsWrite(ctx *rpc.Ctx, f *File, l *pnfs.FileLayout, e stripe.Extent, chunk payload.Payload) (*CompoundRep, error) {
	conn := c.device(l.Devices[e.Dev])
	if conn == nil {
		return nil, fmt.Errorf("nfs: no conn for device %d", l.Devices[e.Dev])
	}
	devOff := e.Off
	if l.Direct {
		devOff = e.DevOff
	}
	return c.call(ctx, conn, false,
		&OpPutFH{FH: l.FHs[e.Dev]},
		&OpWrite{StateID: f.stateID, Off: devOff, Data: chunk},
	)
}

// Fsync flushes all dirty data, commits unstable writes on every touched
// server, and publishes metadata via LAYOUTCOMMIT — the paper's prototype
// semantics: data reaches stable storage on fsync/close only (§5).
func (c *Client) Fsync(ctx *rpc.Ctx, f *File) error {
	c.chargeOp(ctx, 1, 0)
	// Flush every remaining dirty run, WSize bytes at a time.
	for {
		run, ok := f.cache.firstDirty()
		if !ok {
			break
		}
		end := run.End
		if end > run.Off+c.cfg.WSize {
			end = run.Off + c.cfg.WSize
		}
		f.cache.clean(run.Off, end)
		c.flushAsync(ctx, f, extent{run.Off, end})
	}
	f.pending.Wait(ctx)
	if err := f.takeAsyncErr(); err != nil {
		return err
	}
	// COMMIT on every server that took unstable writes.  The commit fan-out
	// rides the engine too (sorted for a deterministic issue order).
	f.pendMu.Lock()
	devs := make([]int, 0, len(f.touched))
	for dev := range f.touched {
		devs = append(devs, dev)
	}
	f.touched = make(map[int]bool)
	f.pendMu.Unlock()
	sort.Ints(devs)
	commits := make([]stripe.Extent, len(devs))
	for i, dev := range devs {
		commits[i] = stripe.Extent{Dev: dev}
	}
	err := c.engine.Run(ctx, commits, func(ctx *rpc.Ctx, r stripe.Extent) error {
		// r.Dev < 0 is the explicit MDS marker; an out-of-range or unknown
		// device (the layout was regenerated under a new membership between
		// the write and this commit) falls back to the MDS the same way.
		if r.Dev < 0 || r.Dev >= len(f.layout.Devices) || c.device(f.layout.Devices[r.Dev]) == nil {
			_, err := c.call(ctx, c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpCommit{})
			return err
		}
		conn := c.device(f.layout.Devices[r.Dev])
		_, err := c.call(ctx, conn, false, &OpPutFH{FH: f.layout.FHs[r.Dev]}, &OpCommit{})
		if err != nil {
			// Crashed data server: commit through the MDS instead, which
			// flushes the parallel FS daemons on the client's behalf.
			c.devErrors.Inc()
			c.mdsFallbacks.Inc()
			_, err = c.call(ctx, c.cfg.MDS, true, &OpPutFH{FH: f.fh}, &OpCommit{})
		}
		return err
	})
	if err != nil {
		return err
	}
	// Publish the (possibly extended) size to the metadata server.
	if f.layout != nil && len(devs) > 0 && f.size > f.committed {
		if _, err := c.call(ctx, c.cfg.MDS, true,
			&OpPutFH{FH: f.fh}, &OpLayoutCommit{NewSize: f.size}); err != nil {
			return err
		}
		f.committed = f.size
	}
	return nil
}

// Close fsyncs and releases the open state, retaining the page cache in
// the inode cache keyed by the post-flush change attribute.
func (c *Client) Close(ctx *rpc.Ctx, f *File) error {
	if err := c.Fsync(ctx, f); err != nil {
		return err
	}
	rep, err := c.call(ctx, c.cfg.MDS, true,
		&OpPutFH{FH: f.fh}, &OpGetAttr{}, &OpClose{StateID: f.stateID})
	if err != nil {
		return err
	}
	c.stateMu.Lock()
	// The File's cache reference transfers to the inode cache; whatever the
	// slot held before loses the map's reference.
	if st, ok := c.inodeCache[f.fh]; ok {
		st.pc.release()
	}
	c.inodeCache[f.fh] = &inodeState{
		change: rep.Results[1].(*ResGetAttr).Attr.Change,
		pc:     f.cache,
	}
	c.stateMu.Unlock()
	return nil
}

// Read returns up to n bytes at off, serving from the page cache, fetching
// RSize-rounded chunks on miss, and prefetching ahead on sequential access.
// The payload is a read-only snapshot, usually a view of the cache's own
// memory (pageCache.slice): the caller must not modify its bytes and should
// Release it when done, which is what lets the underlying buffer be reused.
func (c *Client) Read(ctx *rpc.Ctx, f *File, off, n int64) (payload.Payload, int64, error) {
	c.chargeCache(ctx, n)
	if off >= f.size {
		return payload.Synthetic(0), 0, nil
	}
	if off+n > f.size {
		n = f.size - off
	}
	// Wait for overlapping in-flight prefetches rather than re-fetching.
	for _, fl := range f.inflight {
		if !fl.done && fl.ext.Off < off+n && off < fl.ext.End {
			fl.wg.Wait(ctx)
		}
	}
	// Fetch what is still missing, rounded out to RSize chunks.
	missing := f.cache.missingResident(off, off+n)
	var chunks []extent
	for _, gap := range missing {
		lo := gap.Off / c.cfg.RSize * c.cfg.RSize
		hi := (gap.End + c.cfg.RSize - 1) / c.cfg.RSize * c.cfg.RSize
		if hi > f.size {
			hi = f.size
		}
		chunks = append(chunks, f.cache.missingResident(lo, hi)...)
	}
	if len(chunks) == 0 {
		c.pcHits.Inc()
	} else {
		c.pcMisses.Inc()
	}
	// One engine run covers every missing chunk, so extents from adjacent
	// chunks that land contiguously on one device coalesce into fewer,
	// larger READs.  The application is blocked on these bytes: they ride
	// the window as Foreground and may hedge against stragglers.
	if err := c.readChunks(ctx, f, chunks, ioengine.RunOpts{Class: ioengine.Foreground, Hedge: true}); err != nil {
		return payload.Payload{}, 0, err
	}
	// Sequential readahead: extend the window while the pattern holds.
	// Simulated-only on purpose: f.inflight and raFlight.done are unlocked,
	// and prefetching over TCP changes measured behaviour (ROADMAP lead (c)).
	if c.cfg.MaxReadAhead > 0 && ctx.P != nil {
		if off == f.seqEnd {
			f.raWindow *= 2
			if f.raWindow < c.cfg.RSize {
				f.raWindow = c.cfg.RSize
			}
			if f.raWindow > c.cfg.MaxReadAhead {
				f.raWindow = c.cfg.MaxReadAhead
			}
			c.prefetch(ctx, f, off+n, f.raWindow)
		} else {
			f.raWindow = 0
		}
	}
	f.seqEnd = off + n
	return f.cache.slice(off, n), n, nil
}

// prefetch advances the readahead frontier toward start+window, issuing
// whole RSize chunks asynchronously.  The frontier keeps successive small
// sequential reads from each spawning a sliver fetch.
func (c *Client) prefetch(ctx *rpc.Ctx, f *File, start, window int64) {
	end := start + window
	if end > f.size {
		end = f.size
	}
	if f.raFrontier < start {
		f.raFrontier = start
	}
	for f.raFrontier < end {
		chunkEnd := f.raFrontier + c.cfg.RSize
		if chunkEnd > f.size {
			chunkEnd = f.size
		}
		if chunkEnd < end && chunkEnd-f.raFrontier < c.cfg.RSize {
			break // only issue whole chunks unless finishing the file
		}
		if chunkEnd > end && chunkEnd < f.size {
			break // window does not yet cover a whole chunk
		}
		for _, gap := range f.cache.missingResident(f.raFrontier, chunkEnd) {
			c.raChunks.Inc()
			fl := &raFlight{ext: gap}
			fl.wg.Add(ctx, 1)
			f.inflight = append(f.inflight, fl)
			ctx.Go(c.cfg.Name+"/readahead", func(ctx *rpc.Ctx) {
				defer func() {
					fl.done = true
					fl.wg.Done(ctx)
				}()
				if err := c.readRange(ctx, f, fl.ext); err != nil {
					f.setAsyncErr(err)
				}
			})
		}
		f.raFrontier = chunkEnd
	}
	// Drop completed flights.
	live := f.inflight[:0]
	for _, fl := range f.inflight {
		if !fl.done {
			live = append(live, fl)
		}
	}
	f.inflight = live
}

// readRange fetches one chunk into the cache (the readahead entry point).
// Readahead is speculative: it rides the window as Background and never
// hedges.
func (c *Client) readRange(ctx *rpc.Ctx, f *File, chunk extent) error {
	return c.readChunks(ctx, f, []extent{chunk}, ioengine.RunOpts{Class: ioengine.Background})
}

// readChunks fetches a set of RSize chunks into the cache in one engine
// run: striped across data servers under a layout, or from the MDS
// otherwise.  Striped extents carry the same recovery ladder as writes — a
// device error evicts and refetches the layout for one retry, and extents
// that still cannot reach a data server are read through the MDS — with one
// extra rung under a replicated layout: a failed extent first retries on
// each alternate replica device before the layout re-drive.  Replicated
// reads are also steered to the least-loaded replica before issue.
func (c *Client) readChunks(ctx *rpc.Ctx, f *File, chunks []extent, opts ioengine.RunOpts) error {
	if len(chunks) == 0 {
		return nil
	}
	if err := f.ensureLayout(ctx); err != nil {
		return err
	}
	want := c.cfg.Real
	mdsRead := func(ctx *rpc.Ctx, e stripe.Extent) error {
		rep, err := c.call(ctx, c.cfg.MDS, true,
			&OpPutFH{FH: f.fh},
			&OpRead{StateID: f.stateID, Off: e.Off, Len: e.Len, WantReal: want},
		)
		if err != nil {
			return err
		}
		f.cache.fill(e.Off, rep.Results[1].(*ResRead).Data)
		return nil
	}
	if f.mapper == nil {
		reqs := make([]stripe.Extent, len(chunks))
		for i, ch := range chunks {
			reqs[i] = stripe.Extent{Off: ch.Off, Len: ch.len()}
		}
		return c.engine.RunWith(ctx, opts, reqs, mdsRead)
	}
	layout := f.layout
	var extents []stripe.Extent
	for _, ch := range chunks {
		extents = append(extents, f.mapper.ReadMap(ch.Off, ch.len(), ch.Off/c.cfg.RSize)...)
	}
	rm, replicated := f.mapper.(*stripe.Replicated)
	if replicated {
		// Steer each extent to its least-loaded replica device before issue.
		extents = c.engine.SteerReplicas(rm, extents)
	}
	read := func(ctx *rpc.Ctx, l *pnfs.FileLayout, e stripe.Extent) error {
		rep, err := c.dsRead(ctx, f, l, e, want)
		if err != nil {
			return err
		}
		f.cache.fill(e.Off, rep.Results[1].(*ResRead).Data)
		return nil
	}
	primary := func(ctx *rpc.Ctx, e stripe.Extent) error {
		err := read(ctx, layout, e)
		// A checksum mismatch gets a bounded number of same-source re-reads
		// before the failure ladder engages: a misdirected read is one-shot,
		// so the next read of the same block is clean, while persistent rot
		// escalates to replica read-repair below (rpc.IntegrityRetries).
		for attempt := 0; rpc.RetryableIntegrity(err); attempt++ {
			c.corruptReads.Inc()
			if attempt >= rpc.IntegrityRetries {
				break
			}
			err = read(ctx, layout, e)
		}
		return err
	}
	recovery := c.recoveryRung(f, layout,
		func(m stripe.Mapper, e stripe.Extent) []stripe.Extent {
			return m.ReadMap(e.Off, e.Len, e.Off/c.cfg.RSize)
		},
		read, nil)
	mdsProxy := ioengine.WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, _ error) error {
		c.mdsFallbacks.Inc()
		return mdsRead(ctx, e)
	})
	policies := []ioengine.Policy{mdsProxy, recovery}
	if replicated {
		// Innermost rung: before evicting the layout, retry the extent on
		// each alternate replica device in turn — every replica holds the
		// same stripe object, so only Dev changes.  The liveness filter
		// keeps failover off devices that have left the cluster.
		live := func(dev int) bool {
			return dev >= 0 && dev < len(layout.Devices) && c.deviceActive(layout.Devices[dev])
		}
		replicaFB := ioengine.WithFallback(func(ctx *rpc.Ctx, e stripe.Extent, err error) error {
			corrupt := rpc.RetryableIntegrity(err)
			for _, alt := range rm.AlternatesLive(e, live) {
				rep, err2 := c.dsRead(ctx, f, layout, alt, want)
				if err2 != nil {
					continue
				}
				data := rep.Results[1].(*ResRead).Data
				if corrupt {
					// The extent failed its checksum, not its transport:
					// rewrite the bad copy with the replica's good bytes
					// before serving them (read-repair).
					c.readRepair(ctx, f, layout, e, data)
				}
				f.cache.fill(alt.Off, data)
				return nil
			}
			return err
		})
		policies = append(policies, replicaFB)
	}
	return c.engine.RunWith(ctx, opts, c.engine.Prepare(extents), primary, policies...)
}

// readRepair rewrites a corrupt extent with good bytes just read from a
// replica, exactly once per (file, device, device-offset): the first corrupt
// read repairs the copy, concurrent and later corrupt reads of the same
// extent only re-serve good bytes.  The rewrite is best-effort — the caller
// already holds good data, and the background scrubber sweeps up copies the
// client never rewrites — so a failed repair only releases the exactly-once
// claim for a later attempt.
func (c *Client) readRepair(ctx *rpc.Ctx, f *File, l *pnfs.FileLayout, e stripe.Extent, good payload.Payload) {
	key := repairKey{fh: f.fh, dev: e.Dev, devOff: e.DevOff}
	rewrite := func() error {
		_, err := c.dsWrite(ctx, f, l, e, good)
		return err
	}
	if c.repaired.Once(key, rewrite) {
		c.readRepairs.Inc()
	}
}

// dsRead sends one extent's READ to its data server under layout l.
func (c *Client) dsRead(ctx *rpc.Ctx, f *File, l *pnfs.FileLayout, e stripe.Extent, want bool) (*CompoundRep, error) {
	conn := c.device(l.Devices[e.Dev])
	if conn == nil {
		return nil, fmt.Errorf("nfs: no conn for device %d", l.Devices[e.Dev])
	}
	devOff := e.Off
	if l.Direct {
		devOff = e.DevOff
	}
	return c.call(ctx, conn, false,
		&OpPutFH{FH: l.FHs[e.Dev]},
		&OpRead{StateID: f.stateID, Off: devOff, Len: e.Len, WantReal: want},
	)
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
