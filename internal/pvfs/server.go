package pvfs

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dpnfs/internal/fserr"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simdisk"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/store/mem"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// The CPU cost model of the user-level PVFS2 daemons and client library on
// the paper's testbed: a user-level file system with "substantial
// per-request overhead" on dual-P4 servers and dual-P3 clients.  The per-op
// charges are what make PVFS2 collapse on small-I/O workloads (paper §6.2,
// §6.4); the per-MB charges bound cache-resident read throughput.
const (
	serverPerOp = 550 * time.Microsecond // daemon request processing + kernel crossings
	serverPerMB = 20 * time.Millisecond  // data movement CPU per MiB on storage nodes
	clientPerOp = 450 * time.Microsecond // client library + kernel module crossing
	clientPerMB = 5 * time.Millisecond   // client-side copy cost per MiB
	metaPerOp   = 300 * time.Microsecond // metadata request processing on the MDS
)

// StorageConfig describes one storage daemon.
type StorageConfig struct {
	Node *simnet.Node
	Disk *simdisk.Disk
	// Store is the content repository backing this daemon's datafile
	// objects (nil: a fresh in-memory store).  Durable stores (store/wal,
	// store/cached) journal on sync requests and survive CrashVolatile.
	Store   store.Store
	Buffers int   // fixed transfer-buffer pool between kernel and daemon
	BufSize int64 // bytes per transfer buffer
	Threads int   // daemon request concurrency
	// Transport, when set together with Node, registers ServiceIO under
	// Node's name (simulated fabric or real TCP).
	Transport rpc.Transport
	// WireChecksums makes real read replies carry a CRC32C over the payload
	// so clients can verify it end to end (docs/BACKENDS.md).
	WireChecksums bool
	// Metrics is the shared observability registry (docs/METRICS.md); nil
	// discards.
	Metrics *metrics.Registry
}

// StorageServer is one PVFS2 storage daemon (Trove+BMI equivalent): it owns
// the datafile objects on its node.  Handle is safe for concurrent calls.
type StorageServer struct {
	cfg     StorageConfig
	store   store.Store
	bufPool *sim.Semaphore
	stats   *storageStats

	mu      sync.Mutex // guards objects
	objects map[Handle]store.FileID
}

// NewStorageServer creates the daemon state and registers its RPC service
// on the node when a transport is configured.
func NewStorageServer(cfg StorageConfig) *StorageServer {
	if cfg.Buffers <= 0 {
		cfg.Buffers = 16
	}
	if cfg.BufSize <= 0 {
		cfg.BufSize = 256 << 10
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 16
	}
	if cfg.Store == nil {
		cfg.Store = mem.New()
	}
	s := &StorageServer{
		cfg:     cfg,
		store:   cfg.Store,
		objects: make(map[Handle]store.FileID),
		stats:   newStorageStats(cfg.Metrics),
	}
	name := "pvfs-storage"
	if cfg.Node != nil {
		name = cfg.Node.Name + "/bufpool"
	}
	s.bufPool = sim.NewSemaphore(name, cfg.Buffers)
	if cfg.Transport != nil && cfg.Node != nil {
		if _, err := cfg.Transport.Serve(cfg.Node.Name, ServiceIO, IORegistry(), s.Handle, cfg.Threads); err != nil {
			panic("pvfs: register storage service: " + err.Error())
		}
	}
	return s
}

// object returns the store file backing handle, or 0 if absent.
func (s *StorageServer) object(h Handle) (store.FileID, bool) {
	s.mu.Lock()
	id, ok := s.objects[h]
	s.mu.Unlock()
	return id, ok
}

// HandleFor reverse-maps a store file back to its datafile handle — the
// scrubber walks the store by FileID but replicas are addressed over the
// wire by Handle.
func (s *StorageServer) HandleFor(id store.FileID) (Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for h, fid := range s.objects {
		if fid == id {
			return h, true
		}
	}
	return 0, false
}

// Store exposes the daemon's content store (scrub wiring, tests).
func (s *StorageServer) Store() store.Store { return s.store }

// ObjectSize reports the datafile object size for handle (0 if absent) —
// used by cache warming and tests.
func (s *StorageServer) ObjectSize(h Handle) int64 {
	id, ok := s.object(h)
	if !ok {
		return 0
	}
	at, err := s.store.GetAttr(id)
	if err != nil {
		return 0
	}
	return at.Size
}

// CrashVolatile models the node's power loss for the daemon's store: a
// durable backend drops to its log and the in-memory handle table is
// cleared.  It is a no-op for non-recoverable (mem) stores — there a plain
// node-down models an unreachable-but-alive node, which is what the PR 3
// failover tests exercise.
func (s *StorageServer) CrashVolatile() {
	rec, ok := s.store.(store.Recoverable)
	if !ok {
		return
	}
	s.mu.Lock()
	s.objects = make(map[Handle]store.FileID)
	s.mu.Unlock()
	rec.Crash()
}

// CorruptData flips one stored byte in the daemon's store, chosen
// deterministically from seed, leaving the block checksum stale.  It
// reports whether any materialized block was eligible (false also when the
// backend has no corruption hooks).
func (s *StorageServer) CorruptData(seed int64) bool {
	c, ok := s.store.(store.Corruptible)
	if !ok {
		return false
	}
	return c.CorruptChunk(seed)
}

// MisdirectRead arms a one-shot wrong-block read in the daemon's store,
// reporting whether a victim was found.
func (s *StorageServer) MisdirectRead(seed int64) bool {
	c, ok := s.store.(store.Corruptible)
	if !ok {
		return false
	}
	return c.MisdirectNextRead(seed)
}

// ArmTornWrite arms the daemon's store so its next crash tears the final
// journal record; false when the backend does not journal.
func (s *StorageServer) ArmTornWrite() bool {
	tw, ok := s.store.(store.TornWriter)
	if !ok {
		return false
	}
	tw.ArmTornWrite()
	return true
}

// RecoverVolatile replays the durable log after a restart and rebuilds the
// handle table from the recovered object names ("h%x" in the store root).
// It reports the number of log records replayed (0 for mem stores).
func (s *StorageServer) RecoverVolatile() (int, error) {
	rec, ok := s.store.(store.Recoverable)
	if !ok {
		return 0, nil
	}
	n, err := rec.Recover()
	if err != nil {
		return n, err
	}
	names, err := s.store.ReadDir(s.store.Root())
	if err != nil {
		return n, err
	}
	objects := make(map[Handle]store.FileID, len(names))
	for _, name := range names {
		var h uint64
		if _, err := fmt.Sscanf(name, "h%x", &h); err != nil {
			continue
		}
		at, err := s.store.Lookup(s.store.Root(), name)
		if err != nil {
			continue
		}
		objects[Handle(h)] = at.ID
	}
	s.mu.Lock()
	s.objects = objects
	s.mu.Unlock()
	return n, nil
}

// Node returns the simnet node this daemon runs on (nil in real-time mode).
func (s *StorageServer) Node() *simnet.Node { return s.cfg.Node }

// Disk returns the daemon's disk model (nil in real-time mode).
func (s *StorageServer) Disk() *simdisk.Disk { return s.cfg.Disk }

// bufSlots computes how many pool buffers an n-byte transfer occupies,
// clamped to the pool size so a single huge request cannot deadlock.
func (s *StorageServer) bufSlots(n int64) int {
	slots := int((n + s.cfg.BufSize - 1) / s.cfg.BufSize)
	if slots < 1 {
		slots = 1
	}
	if slots > s.cfg.Buffers {
		slots = s.cfg.Buffers
	}
	return slots
}

// acquireBuffers blocks until the transfer buffers are available and returns
// a release func.
func (s *StorageServer) acquireBuffers(ctx *rpc.Ctx, n int64) func() {
	// Simulated-only on purpose: the 16×256 KB pool models the 2007 daemon;
	// bounding real TCP transfers by it is a behaviour change (ROADMAP (c)).
	if ctx.P == nil {
		return func() {}
	}
	slots := s.bufSlots(n)
	waitStart := ctx.Now()
	s.bufPool.Acquire(ctx.P, slots)
	s.stats.bufWait.ObserveDuration(time.Duration(ctx.Now() - waitStart))
	s.stats.buffers.Add(int64(slots))
	return func() {
		s.stats.buffers.Add(int64(-slots))
		s.bufPool.Release(slots)
	}
}

// Handle dispatches one storage daemon request.
func (s *StorageServer) Handle(ctx *rpc.Ctx, proc uint32, req any) (xdr.Marshaler, rpc.Status) {
	// The data procedures are typed methods, which count themselves.
	switch proc {
	case ProcIOWrite:
		return s.Write(ctx, req.(*IOWriteArgs)), rpc.StatusOK
	case ProcIORead:
		return s.Read(ctx, req.(*IOReadArgs)), rpc.StatusOK
	case ProcIOFlush:
		return s.Flush(ctx, req.(*IOFlushArgs)), rpc.StatusOK
	}
	s.stats.requests.inc(proc)
	cpu := s.cfg.Node.Processor()
	switch proc {
	case ProcIOCreate:
		a := req.(*IOCreateArgs)
		ctx.UseCPU(cpu, metaPerOp)
		s.mu.Lock()
		if _, dup := s.objects[a.Handle]; dup {
			s.mu.Unlock()
			return &IOCreateRep{Errno: fserr.Exist}, rpc.StatusOK
		}
		at, err := s.store.Create(s.store.Root(), fmt.Sprintf("h%x", uint64(a.Handle)))
		if err != nil {
			s.mu.Unlock()
			return &IOCreateRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		s.objects[a.Handle] = at.ID
		s.mu.Unlock()
		return &IOCreateRep{}, rpc.StatusOK

	case ProcIORemove:
		a := req.(*IORemoveArgs)
		ctx.UseCPU(cpu, metaPerOp)
		s.mu.Lock()
		if _, ok := s.objects[a.Handle]; !ok {
			s.mu.Unlock()
			return &IORemoveRep{Errno: fserr.NoEnt}, rpc.StatusOK
		}
		if err := s.store.Remove(s.store.Root(), fmt.Sprintf("h%x", uint64(a.Handle))); err != nil {
			s.mu.Unlock()
			return &IORemoveRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		delete(s.objects, a.Handle)
		s.mu.Unlock()
		return &IORemoveRep{}, rpc.StatusOK

	case ProcIOGetSize:
		a := req.(*IOGetSizeArgs)
		ctx.UseCPU(cpu, metaPerOp)
		id, ok := s.object(a.Handle)
		if !ok {
			return &IOGetSizeRep{Errno: fserr.Stale}, rpc.StatusOK
		}
		at, err := s.store.GetAttr(id)
		if err != nil {
			return &IOGetSizeRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		return &IOGetSizeRep{Size: at.Size, Change: at.Change}, rpc.StatusOK

	case ProcIOTruncate:
		a := req.(*IOTruncateArgs)
		ctx.UseCPU(cpu, metaPerOp)
		id, ok := s.object(a.Handle)
		if !ok {
			return &IOTruncateRep{Errno: fserr.Stale}, rpc.StatusOK
		}
		if err := s.store.Truncate(id, a.ObjSize); err != nil {
			return &IOTruncateRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		return &IOTruncateRep{}, rpc.StatusOK
	}
	return nil, rpc.StatusProcUnavail
}

// Write, Read and Flush are the daemon's data procedures as typed calls:
// Handle serves them to remote clients, and a co-located Direct-pNFS data
// server calls them directly — the paper's loopback conduit (§5) is a
// function call.  Either way a call counts as one request of its procedure
// and pays the daemon's CPU, transfer-buffer and disk charges.

// Write serves ProcIOWrite.
func (s *StorageServer) Write(ctx *rpc.Ctx, a *IOWriteArgs) *IOWriteRep {
	s.stats.requests.inc(ProcIOWrite)
	id, ok := s.object(a.Handle)
	if !ok {
		return &IOWriteRep{Errno: fserr.Stale}
	}
	n := a.Data.Len()
	ctx.UseCPU(s.cfg.Node.Processor(), serverPerOp+rpc.PerMB(serverPerMB, n))
	release := s.acquireBuffers(ctx, n)
	ctx.Defer(release)
	prev, err := s.store.GetAttr(id)
	if err != nil {
		return &IOWriteRep{Errno: fserr.ToErrno(err)}
	}
	// A write that partially covers a block of existing data forces a
	// read-modify-write of the boundary blocks; appends past EOF extend
	// sparsely and skip it.  The client-side gathering of the NFS
	// architectures issues aligned wsize flushes and never pays this;
	// cacheless PVFS2 clients pass small application requests straight
	// through (paper §6.3.1).
	const blk = 64 << 10
	if a.Off < prev.Size {
		if head := a.Off % blk; head != 0 {
			s.cfg.Disk.Read(ctx.P, uint64(a.Handle), a.Off-head, blk)
		}
		if tail := (a.Off + n) % blk; tail != 0 && a.Off+n < prev.Size {
			s.cfg.Disk.Read(ctx.P, uint64(a.Handle), (a.Off+n)-tail, blk)
		}
	}
	var objSize int64
	if a.Data.IsSynthetic() {
		objSize, err = s.store.WriteSyntheticAt(id, a.Off, n)
	} else {
		objSize, err = s.store.WriteAt(id, a.Off, a.Data.Bytes)
	}
	if err != nil {
		return &IOWriteRep{Errno: fserr.ToErrno(err)}
	}
	s.cfg.Disk.Write(ctx.P, uint64(a.Handle), a.Off, n)
	if a.Sync {
		// Durability point: a durable store journals here, then the
		// data disk takes its barrier.
		if err := s.store.Sync(ctx.P); err != nil {
			return &IOWriteRep{Errno: fserr.ToErrno(err)}
		}
		s.cfg.Disk.Sync(ctx.P)
	}
	if n > 0 {
		s.stats.bytesWrite.Add(uint64(n))
	}
	return &IOWriteRep{ObjSize: objSize}
}

// Read serves ProcIORead.
func (s *StorageServer) Read(ctx *rpc.Ctx, a *IOReadArgs) *IOReadRep {
	s.stats.requests.inc(ProcIORead)
	id, ok := s.object(a.Handle)
	if !ok {
		return &IOReadRep{Errno: fserr.Stale}
	}
	at, err := s.store.GetAttr(id)
	if err != nil {
		return &IOReadRep{Errno: fserr.ToErrno(err)}
	}
	n := a.Len
	if a.Off >= at.Size {
		n = 0
	} else if a.Off+n > at.Size {
		n = at.Size - a.Off
	}
	ctx.UseCPU(s.cfg.Node.Processor(), serverPerOp+rpc.PerMB(serverPerMB, n))
	release := s.acquireBuffers(ctx, n)
	ctx.Defer(release)
	if n > 0 {
		s.cfg.Disk.Read(ctx.P, uint64(a.Handle), a.Off, n)
		s.stats.bytesRead.Add(uint64(n))
	}
	rep := &IOReadRep{Eof: n < a.Len, Data: payload.Synthetic(n)}
	if a.WantReal {
		rep.Data, err = ctx.ReplyBuf(n, func(buf []byte) error {
			_, err := s.store.ReadAt(id, a.Off, buf)
			return err
		})
		if err != nil {
			return &IOReadRep{Errno: fserr.ToErrno(err)}
		}
		if s.cfg.WireChecksums {
			rep.Sum, rep.HasSum = xdr.Checksum(rep.Data.Bytes), true
		}
	}
	return rep
}

// Flush serves ProcIOFlush.
func (s *StorageServer) Flush(ctx *rpc.Ctx, a *IOFlushArgs) *IOFlushRep {
	s.stats.requests.inc(ProcIOFlush)
	ctx.UseCPU(s.cfg.Node.Processor(), serverPerOp)
	if _, ok := s.object(a.Handle); !ok {
		return &IOFlushRep{Errno: fserr.Stale}
	}
	if err := s.store.Sync(ctx.P); err != nil {
		return &IOFlushRep{Errno: fserr.ToErrno(err)}
	}
	s.cfg.Disk.Sync(ctx.P)
	return &IOFlushRep{}
}

// MetaConfig describes the metadata server.
type MetaConfig struct {
	Node    *simnet.Node
	Dist    DistParams
	IOConns []rpc.Conn // one per storage daemon, in device order
	// Store is the metadata repository backing the namespace (nil: a fresh
	// in-memory store).  Durable stores are journalled synchronously after
	// every namespace mutation.
	Store   store.Store
	Threads int
	// Retry bounds the retry loop on IOConns fan-out calls so metadata
	// operations (create, getattr, truncate) survive a storage-daemon
	// outage shorter than the budget.  Zero takes rpc.DefaultRetryPolicy.
	Retry rpc.RetryPolicy
	// Transport, when set together with Node, registers ServiceMeta under
	// Node's name (simulated fabric or real TCP).
	Transport rpc.Transport
	// Metrics is the shared observability registry (docs/METRICS.md); nil
	// discards.
	Metrics *metrics.Registry
}

// Placement is a file's data placement: the handle its stripe objects live
// under and the distribution geometry they follow.  Data equals the file's
// own handle until a migration copies the bytes into shadow objects.
type Placement struct {
	Data Handle
	Dist DistParams
}

// shadowBase is the first handle in the range reserved for migration shadow
// objects — far above anything the namespace store allocates.
const shadowBase Handle = 1 << 48

// MetaServer is the PVFS2 metadata manager: it owns the namespace and
// orchestrates datafile objects across storage daemons.
type MetaServer struct {
	cfg   MetaConfig
	store store.Store
	stats *metaStats

	// mu guards the mutable distribution state: the default geometry for
	// new files, the per-file placements recorded at create and rewritten
	// by migration, and the IO conn table keyed by stable server ID.
	mu          sync.Mutex
	dist        DistParams // current default distribution
	initialDist DistParams // geometry at construction (fallback for untracked files)
	ioByID      map[uint32]rpc.Conn
	placements  map[Handle]Placement
	nextShadow  Handle
}

// NewMetaServer creates the MDS and registers its RPC service on the node
// when a transport is configured.
func NewMetaServer(cfg MetaConfig) *MetaServer {
	if cfg.Dist.StripeSize <= 0 {
		cfg.Dist.StripeSize = 2 << 20
	}
	if cfg.Dist.NumServers == 0 {
		cfg.Dist.NumServers = uint32(len(cfg.IOConns))
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 16
	}
	stats := newMetaStats(cfg.Metrics)
	conns := make([]rpc.Conn, len(cfg.IOConns))
	for i, conn := range cfg.IOConns {
		conns[i] = rpc.WithRetry(conn, cfg.Retry, stats.ioRetries.Inc)
	}
	cfg.IOConns = conns
	if cfg.Store == nil {
		cfg.Store = mem.New()
	}
	m := &MetaServer{
		cfg: cfg, store: cfg.Store, stats: stats,
		dist:        cfg.Dist,
		initialDist: cfg.Dist,
		ioByID:      make(map[uint32]rpc.Conn, len(conns)),
		placements:  make(map[Handle]Placement),
		nextShadow:  shadowBase,
	}
	for i, conn := range conns {
		m.ioByID[uint32(i)] = conn
	}
	if cfg.Transport != nil && cfg.Node != nil {
		if _, err := cfg.Transport.Serve(cfg.Node.Name, ServiceMeta, MetaRegistry(), m.Handle, cfg.Threads); err != nil {
			panic("pvfs: register meta service: " + err.Error())
		}
	}
	return m
}

// Mapper returns the round-robin mapper for the current default
// distribution.
func (m *MetaServer) Mapper() *stripe.RoundRobin {
	d := m.Dist()
	return stripe.NewRoundRobin(d.StripeSize, len(d.ServerIDs()))
}

// Namespace exposes the backing metadata repository (layout translator and
// tests).
func (m *MetaServer) Namespace() store.Metadata { return m.store }

// syncMeta makes a namespace mutation durable: metadata servers journal
// synchronously, so an acknowledged create/remove/rename survives a crash.
// mem's Sync is a free no-op, keeping the default timing unchanged.
func (m *MetaServer) syncMeta(ctx *rpc.Ctx) {
	_ = m.store.Sync(ctx.P)
}

// Dist returns the current default distribution parameters for new files.
func (m *MetaServer) Dist() DistParams {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dist
}

// SetDefaultDist replaces the default distribution new files are created
// under.  Existing files keep their recorded placement until migration
// rewrites it.
func (m *MetaServer) SetDefaultDist(d DistParams) {
	m.mu.Lock()
	m.dist = d
	m.mu.Unlock()
}

// AddIOConn registers (or replaces) the conn to the storage daemon with the
// given stable server ID, wrapped in the server's retry policy.  Joining
// nodes get IDs beyond the construction-time range.
func (m *MetaServer) AddIOConn(id uint32, conn rpc.Conn) {
	wrapped := rpc.WithRetry(conn, m.cfg.Retry, m.stats.ioRetries.Inc)
	m.mu.Lock()
	m.ioByID[id] = wrapped
	m.mu.Unlock()
}

// PlacementOf returns the file's recorded placement.  Files with no record
// (created before placement tracking, or whose record was lost with MDS
// volatile state) fall back to their own handle under the construction-time
// geometry — exactly where their bytes are, since migration always records
// what it moves.
func (m *MetaServer) PlacementOf(h Handle) Placement {
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.placements[h]; ok {
		return p
	}
	return Placement{Data: h, Dist: m.initialDist}
}

// SetPlacement records the file's placement (migration commit).
func (m *MetaServer) SetPlacement(h Handle, p Placement) {
	m.mu.Lock()
	m.placements[h] = p
	m.mu.Unlock()
}

// connsFor resolves stripe-order server IDs to conns.  Unknown IDs yield a
// nil conn; callers treat that as an I/O error rather than panicking.
func (m *MetaServer) connsFor(ids []uint32) []rpc.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]rpc.Conn, len(ids))
	for i, id := range ids {
		out[i] = m.ioByID[id]
	}
	return out
}

// allConns snapshots every registered storage conn (cluster-wide fan-outs:
// remove, flush).
func (m *MetaServer) allConns() []rpc.Conn {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]uint32, 0, len(m.ioByID))
	for id := range m.ioByID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]rpc.Conn, len(ids))
	for i, id := range ids {
		out[i] = m.ioByID[id]
	}
	return out
}

// fanout runs fn against every registered storage daemon in parallel.
func (m *MetaServer) fanout(ctx *rpc.Ctx, fn func(ctx *rpc.Ctx, i int, conn rpc.Conn) error) error {
	return m.fanoutConns(ctx, m.allConns(), fn)
}

// fanoutConns runs fn against each conn in parallel (i is the stripe-order
// index), collecting the first error.  A nil conn (unknown server ID) is an
// immediate I/O error.
func (m *MetaServer) fanoutConns(ctx *rpc.Ctx, conns []rpc.Conn, fn func(ctx *rpc.Ctx, i int, conn rpc.Conn) error) error {
	errs := make([]error, len(conns))
	rpc.Parallel(ctx, len(conns), func(ctx *rpc.Ctx, i int) {
		if conns[i] == nil {
			errs[i] = fserr.IO.Err()
			return
		}
		errs[i] = fn(ctx, i, conns[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Handle dispatches one metadata request.
func (m *MetaServer) Handle(ctx *rpc.Ctx, proc uint32, req any) (xdr.Marshaler, rpc.Status) {
	m.stats.requests.inc(proc)
	ctx.UseCPU(m.cfg.Node.Processor(), metaPerOp)
	switch proc {
	// Each namespace verb has a path procedure and a handle procedure over
	// one body: the path form walks from the root to the (directory, name)
	// the handle form is given.
	case ProcLookup:
		return m.lookup(m.store.LookupPath(req.(*LookupArgs).Path)), rpc.StatusOK
	case ProcLookupH:
		a := req.(*DirOpArgs)
		return m.lookup(m.store.Lookup(store.FileID(a.Dir), a.Name)), rpc.StatusOK

	case ProcCreate:
		dir, name, err := m.splitPath(req.(*CreateArgs).Path)
		if err != nil {
			return &CreateRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		return m.create(ctx, dir, name), rpc.StatusOK
	case ProcCreateH:
		a := req.(*DirOpArgs)
		return m.create(ctx, store.FileID(a.Dir), a.Name), rpc.StatusOK

	case ProcMkdir:
		dir, name, err := m.splitPath(req.(*MkdirArgs).Path)
		if err != nil {
			return &MkdirRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		return m.mkdir(ctx, dir, name), rpc.StatusOK
	case ProcMkdirH:
		a := req.(*DirOpArgs)
		return m.mkdir(ctx, store.FileID(a.Dir), a.Name), rpc.StatusOK

	case ProcRemove:
		dir, name, err := m.splitPath(req.(*RemoveArgs).Path)
		if err != nil {
			return &RemoveRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		return m.remove(ctx, dir, name), rpc.StatusOK
	case ProcRemoveH:
		a := req.(*DirOpArgs)
		return m.remove(ctx, store.FileID(a.Dir), a.Name), rpc.StatusOK

	case ProcRenameH: // no path form: only the NFS exports rename
		a := req.(*RenameHArgs)
		return m.rename(ctx, store.FileID(a.Dir), a.Src, a.Dst), rpc.StatusOK

	case ProcReadDir:
		at, err := m.store.LookupPath(req.(*ReadDirArgs).Path)
		if err != nil {
			return &ReadDirRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		return m.readDir(at.ID), rpc.StatusOK
	case ProcReadDirH:
		return m.readDir(store.FileID(req.(*ReadDirHArgs).Handle)), rpc.StatusOK

	case ProcPlacementH:
		a := req.(*PlacementHArgs)
		if _, err := m.store.GetAttr(store.FileID(a.Handle)); err != nil {
			return &PlacementRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		place := m.PlacementOf(a.Handle)
		return &PlacementRep{Data: place.Data, Dist: place.Dist}, rpc.StatusOK

	case ProcGetAttr:
		a := req.(*GetAttrArgs)
		at, err := m.store.GetAttr(store.FileID(a.Handle))
		if err != nil {
			return &GetAttrRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		if at.IsDir {
			return &GetAttrRep{IsDir: true}, rpc.StatusOK
		}
		// Reconstruct logical size from the datafile sizes on the file's
		// placement servers (decentralized metadata, paper §6.4.3).
		place := m.PlacementOf(a.Handle)
		ids := place.Dist.ServerIDs()
		mapper := place.Dist.Mapper()
		sizes := make([]int64, len(ids))
		changes := make([]uint64, len(ids))
		ferr := m.fanoutConns(ctx, m.connsFor(ids), func(ctx *rpc.Ctx, dev int, conn rpc.Conn) error {
			var rep IOGetSizeRep
			if err := conn.Call(ctx, ProcIOGetSize, &IOGetSizeArgs{Handle: place.Data}, &rep); err != nil {
				return err
			}
			if rep.Errno != fserr.OK {
				return rep.Errno.Err()
			}
			sizes[dev] = rep.Size
			changes[dev] = rep.Change
			return nil
		})
		if ferr != nil {
			return &GetAttrRep{Errno: fserr.IO}, rpc.StatusOK
		}
		var size int64
		var change uint64
		for dev, s := range sizes {
			if end := logicalEnd(mapper, dev, s); end > size {
				size = end
			}
			change += changes[dev]
		}
		change += at.Change
		return &GetAttrRep{Size: size, Change: change}, rpc.StatusOK

	case ProcTruncate:
		a := req.(*TruncateArgs)
		if _, err := m.store.GetAttr(store.FileID(a.Handle)); err != nil {
			return &TruncateRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		place := m.PlacementOf(a.Handle)
		ids := place.Dist.ServerIDs()
		sizes := objSizes(place.Dist.Mapper(), len(ids), a.Size)
		ferr := m.fanoutConns(ctx, m.connsFor(ids), func(ctx *rpc.Ctx, dev int, conn rpc.Conn) error {
			var rep IOTruncateRep
			return conn.Call(ctx, ProcIOTruncate,
				&IOTruncateArgs{Handle: place.Data, ObjSize: sizes[dev]}, &rep)
		})
		if ferr != nil {
			return &TruncateRep{Errno: fserr.IO}, rpc.StatusOK
		}
		return &TruncateRep{}, rpc.StatusOK
	}
	return nil, rpc.StatusProcUnavail
}

// lookup answers a resolved (or failed) name lookup.
func (m *MetaServer) lookup(at store.Attr, err error) *LookupRep {
	if err != nil {
		return &LookupRep{Errno: fserr.ToErrno(err)}
	}
	place := m.PlacementOf(Handle(at.ID))
	return &LookupRep{
		Handle: Handle(at.ID),
		IsDir:  at.IsDir,
		Size:   -1, // size is reconstructed by GetAttr, not lookup
		Dist:   place.Dist,
		Data:   place.Data,
	}
}

// create makes the file name in dir.  The datafile object on each storage
// daemon of the current default distribution is created before the file
// becomes visible — the expensive part of PVFS2 creates.
func (m *MetaServer) create(ctx *rpc.Ctx, dir store.FileID, name string) *CreateRep {
	at, err := m.store.Create(dir, name)
	if err != nil {
		return &CreateRep{Errno: fserr.ToErrno(err)}
	}
	h := Handle(at.ID)
	dist := m.Dist()
	if err := m.createObjects(ctx, h, dist); err != nil {
		return &CreateRep{Errno: fserr.IO}
	}
	m.SetPlacement(h, Placement{Data: h, Dist: dist})
	m.syncMeta(ctx)
	return &CreateRep{Handle: h, Dist: dist, Data: h}
}

// mkdir makes the directory name in dir (metadata only).
func (m *MetaServer) mkdir(ctx *rpc.Ctx, dir store.FileID, name string) *MkdirRep {
	at, err := m.store.Mkdir(dir, name)
	if err != nil {
		return &MkdirRep{Errno: fserr.ToErrno(err)}
	}
	m.syncMeta(ctx)
	return &MkdirRep{Handle: Handle(at.ID)}
}

// remove unlinks name from dir; a file's datafile objects go first.
func (m *MetaServer) remove(ctx *rpc.Ctx, dir store.FileID, name string) *RemoveRep {
	at, err := m.store.Lookup(dir, name)
	if err != nil {
		return &RemoveRep{Errno: fserr.ToErrno(err)}
	}
	if !at.IsDir {
		m.removeObjects(ctx, Handle(at.ID))
	}
	if err := m.store.Remove(dir, name); err != nil {
		return &RemoveRep{Errno: fserr.ToErrno(err)}
	}
	m.syncMeta(ctx)
	return &RemoveRep{}
}

// rename moves src to dst within dir.  A file the rename replaced is
// unreachable by name afterwards, so both ends are resolved first and the
// replaced file's datafile objects are removed like an unlinked file's — but
// not when dst already was src (a no-op rename), and never for directories.
func (m *MetaServer) rename(ctx *rpc.Ctx, dir store.FileID, src, dst string) *RemoveRep {
	moved, _ := m.store.Lookup(dir, src)
	replaced, err := m.store.Lookup(dir, dst)
	hadTarget := err == nil && !replaced.IsDir && replaced.ID != moved.ID
	if err := m.store.Rename(dir, src, dir, dst); err != nil {
		return &RemoveRep{Errno: fserr.ToErrno(err)}
	}
	if hadTarget {
		m.removeObjects(ctx, Handle(replaced.ID))
	}
	m.syncMeta(ctx)
	return &RemoveRep{}
}

// readDir lists directory dir.
func (m *MetaServer) readDir(dir store.FileID) *ReadDirRep {
	names, err := m.store.ReadDir(dir)
	if err != nil {
		return &ReadDirRep{Errno: fserr.ToErrno(err)}
	}
	return &ReadDirRep{Names: names}
}

// createObjects creates the datafile objects for handle h on each server of
// dist, in parallel.
func (m *MetaServer) createObjects(ctx *rpc.Ctx, h Handle, dist DistParams) error {
	return m.fanoutConns(ctx, m.connsFor(dist.ServerIDs()), func(ctx *rpc.Ctx, _ int, conn rpc.Conn) error {
		var rep IOCreateRep
		if err := conn.Call(ctx, ProcIOCreate, &IOCreateArgs{Handle: h}, &rep); err != nil {
			return err
		}
		return rep.Errno.Err()
	})
}

// removeObjects deletes a file's datafile objects.  Both the original and
// (if migrated) shadow handles are removed, on every registered daemon:
// source objects deliberately stay behind after a join migration so stale
// layouts keep reading correct bytes, and remove is where they finally go.
// Absent objects answer NoEnt, which is ignored like the conn errors here.
func (m *MetaServer) removeObjects(ctx *rpc.Ctx, h Handle) {
	handles := []Handle{h}
	if place := m.PlacementOf(h); place.Data != h {
		handles = append(handles, place.Data)
	}
	m.fanout(ctx, func(ctx *rpc.Ctx, _ int, conn rpc.Conn) error {
		for _, obj := range handles {
			var rep IORemoveRep
			if err := conn.Call(ctx, ProcIORemove, &IORemoveArgs{Handle: obj}, &rep); err != nil {
				return err
			}
		}
		return nil
	})
	m.mu.Lock()
	delete(m.placements, h)
	m.mu.Unlock()
}

// PrepareMigrate allocates a shadow data handle for h and creates its
// objects on the current default distribution's servers.  The returned
// placement is where a migration should copy the file's bytes; nothing is
// visible to clients until CommitMigrate records it.
func (m *MetaServer) PrepareMigrate(ctx *rpc.Ctx, h Handle) (Placement, error) {
	m.mu.Lock()
	shadow := m.nextShadow
	m.nextShadow++
	dist := m.dist
	m.mu.Unlock()
	if err := m.createObjects(ctx, shadow, dist); err != nil {
		return Placement{}, err
	}
	return Placement{Data: shadow, Dist: dist}, nil
}

// CommitMigrate atomically flips h's placement to the migrated copy.
func (m *MetaServer) CommitMigrate(h Handle, p Placement) { m.SetPlacement(h, p) }

// splitPath resolves the parent directory of path and returns (dirID, name).
func (m *MetaServer) splitPath(p string) (store.FileID, string, error) {
	dir, name := splitParent(p)
	at, err := m.store.LookupPath(dir)
	if err != nil {
		return 0, "", err
	}
	if !at.IsDir {
		return 0, "", store.ErrNotDir
	}
	return at.ID, name, nil
}

// objSizes computes, for a logical size, the implied object size on each
// device under mapper.
func objSizes(mapper stripe.Mapper, devs int, logical int64) []int64 {
	out := make([]int64, devs)
	if logical <= 0 {
		return out
	}
	for _, e := range mapper.Map(0, logical) {
		if end := e.DevOff + e.Len; end > out[e.Dev] {
			out[e.Dev] = end
		}
	}
	return out
}

// splitParent splits "/a/b/c" into ("/a/b", "c").
func splitParent(p string) (dir, name string) {
	i := len(p) - 1
	for i >= 0 && p[i] == '/' {
		i--
	}
	j := i
	for j >= 0 && p[j] != '/' {
		j--
	}
	return p[:j+1], p[j+1 : i+1]
}
