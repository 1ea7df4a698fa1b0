package pvfs

import (
	"strconv"
	"strings"
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

// The daemons' request concurrency and the storage daemon's fixed
// transfer-buffer pool between kernel and daemon, as the 2007 daemons ran.
const (
	daemonThreads  = 16
	storageBuffers = 16
	storageBufSize = 256 << 10
)

// LoopbackClientPerOp is the per-request cost of a client library co-located
// with the daemon it calls (the Direct-pNFS data server's conduit, paper §5):
// half the library's per-op cost, the network half of the crossing being
// absent.
const LoopbackClientPerOp = clientPerOp / 2

// StorageConfig describes one storage daemon.
type StorageConfig struct {
	Node *simnet.Node
	Disk *simdisk.Disk
	// Store is the content repository backing this daemon's datafile
	// objects (nil: a fresh in-memory store).  A durable store (store/wal)
	// flushes its journal on sync requests and survives a crash.
	Store store.Store
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
}

// NewStorageServer creates the daemon state and registers its RPC service
// on the node when a transport is configured.
func NewStorageServer(cfg StorageConfig) *StorageServer {
	if cfg.Store == nil {
		cfg.Store = mem.New()
	}
	s := &StorageServer{
		cfg:   cfg,
		store: cfg.Store,
		stats: newStorageStats(cfg.Metrics),
	}
	name := "pvfs-storage"
	if cfg.Node != nil {
		name = cfg.Node.Name + "/bufpool"
	}
	s.bufPool = sim.NewSemaphore(name, storageBuffers)
	if cfg.Transport != nil && cfg.Node != nil {
		if _, err := cfg.Transport.Serve(cfg.Node.Name, ServiceIO, IORegistry(), s.Handle, daemonThreads); err != nil {
			panic("pvfs: register storage service: " + err.Error())
		}
	}
	return s
}

// objectName is the store-root name of handle h's datafile object.  The
// store's root directory is the daemon's only handle index: every request
// resolves its handle there, so a crashed store answers each one as down,
// and a recovered store needs nothing rebuilt.
func objectName(h Handle) string {
	var buf [17]byte
	return string(strconv.AppendUint(append(buf[:0], 'h'), uint64(h), 16))
}

// ObjectHandle parses an objectName back to its handle — the scrubber
// walks the store by name, but replicas are addressed over the wire by
// handle.
func ObjectHandle(name string) (Handle, bool) {
	if len(name) < 2 || name[0] != 'h' {
		return 0, false
	}
	h, err := strconv.ParseUint(name[1:], 16, 64)
	return Handle(h), err == nil
}

// object resolves handle h to its store file.  An absent object is a
// stale handle; any other store error (a crashed store) maps as usual.
func (s *StorageServer) object(h Handle) (store.FileID, fserr.Errno) {
	at, err := s.store.Lookup(s.store.Root(), objectName(h))
	return at.ID, objectErrno(err)
}

// objectErrno maps a store error on a datafile object.  An object that is
// gone is a stale handle, also when the request had already resolved it: a
// remove (a migration's flip among them) can reclaim the object while the
// request waits for its CPU, buffers or disk, and the client must then
// re-read the placement, not fail the application's call.
func objectErrno(err error) fserr.Errno {
	if err == store.ErrNotExist {
		return fserr.Stale
	}
	return fserr.ToErrno(err)
}

// Store exposes the daemon's content store (scrub wiring, tests).
func (s *StorageServer) Store() store.Store { return s.store }

// ObjectSize reports the datafile object size for handle (0 if absent) —
// used by cache warming and tests.
func (s *StorageServer) ObjectSize(h Handle) int64 {
	id, e := s.object(h)
	if e != fserr.OK {
		return 0
	}
	at, err := s.store.GetAttr(id)
	if err != nil {
		return 0
	}
	return at.Size
}

// Node returns the simnet node this daemon runs on (nil in real-time mode).
func (s *StorageServer) Node() *simnet.Node { return s.cfg.Node }

// bufSlots computes how many pool buffers an n-byte transfer occupies,
// clamped to the pool size so a single huge request cannot deadlock.
func (s *StorageServer) bufSlots(n int64) int {
	slots := int((n + storageBufSize - 1) / storageBufSize)
	if slots < 1 {
		slots = 1
	}
	if slots > storageBuffers {
		slots = storageBuffers
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

// answerCrash is the one crash check of both servers' Handle: a request
// whose store crashed under it (fserr.Unavailable) is answered as a down
// node is, with rpc.StatusDown, which the caller's transport turns into the
// retryable error of a call to a down node.
func answerCrash(rep *xdr.Marshaler, status *rpc.Status) {
	if r, ok := (*rep).(interface{ errno() fserr.Errno }); ok && r.errno() == fserr.Unavailable {
		*rep, *status = nil, rpc.StatusDown
	}
}

// Handle dispatches one storage daemon request.
func (s *StorageServer) Handle(ctx *rpc.Ctx, proc uint32, req any) (rep xdr.Marshaler, status rpc.Status) {
	defer answerCrash(&rep, &status)
	// The data procedures are typed methods, which count themselves.
	switch proc {
	case ProcIOWrite:
		return s.Write(ctx, req.(*IOWriteArgs), store.BlockSums{}), rpc.StatusOK // the PVFS2 request has no field for block sums
	case ProcIORead:
		rep, _ := s.Read(ctx, req.(*IOReadArgs)) // the PVFS2 reply has no field for block sums
		return rep, rpc.StatusOK
	case ProcIOFlush:
		return s.Flush(ctx, req.(*IOFlushArgs)), rpc.StatusOK
	}
	s.stats.requests.inc(proc)
	cpu := s.cfg.Node.Processor()
	switch proc {
	case ProcIOCreate:
		a := req.(*IOCreateArgs)
		ctx.UseCPU(cpu, metaPerOp)
		if _, err := s.store.Create(s.store.Root(), objectName(a.Handle)); err != nil {
			return &IOCreateRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		return &IOCreateRep{Errno: s.syncStore(ctx)}, rpc.StatusOK

	case ProcIORemove:
		a := req.(*IORemoveArgs)
		ctx.UseCPU(cpu, metaPerOp)
		name := objectName(a.Handle)
		at, err := s.store.Lookup(s.store.Root(), name)
		if err == nil {
			err = s.store.Remove(s.store.Root(), name)
		}
		if err != nil {
			return &IORemoveRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		// The daemon addresses its objects only through their names, so
		// with the name gone nothing reaches the file again: its bytes go
		// back to the store now, not at the next checkpoint or recovery.
		// A request that resolved the name before it went finds no file.
		if r, ok := s.store.(store.Reclaimer); ok {
			_ = r.Reclaim(at.ID)
		}
		return &IORemoveRep{}, rpc.StatusOK

	case ProcIOGetSize:
		a := req.(*IOGetSizeArgs)
		ctx.UseCPU(cpu, metaPerOp)
		id, e := s.object(a.Handle)
		if e != fserr.OK {
			return &IOGetSizeRep{Errno: e}, rpc.StatusOK
		}
		at, err := s.store.GetAttr(id)
		if err != nil {
			return &IOGetSizeRep{Errno: objectErrno(err)}, rpc.StatusOK
		}
		return &IOGetSizeRep{Size: at.Size, Change: at.Change}, rpc.StatusOK

	case ProcIOTruncate:
		a := req.(*IOTruncateArgs)
		ctx.UseCPU(cpu, metaPerOp)
		id, e := s.object(a.Handle)
		if e != fserr.OK {
			return &IOTruncateRep{Errno: e}, rpc.StatusOK
		}
		if err := s.store.Truncate(id, a.ObjSize); err != nil {
			return &IOTruncateRep{Errno: objectErrno(err)}, rpc.StatusOK
		}
		return &IOTruncateRep{Errno: s.syncStore(ctx)}, rpc.StatusOK
	}
	return nil, rpc.StatusProcUnavail
}

// syncStore makes a create or truncate durable before it is acknowledged,
// because no later request is sure to: a file created and fsynced empty
// sends its daemons no WRITE or COMMIT, and a migration's copy syncs only
// the daemons it writes, so a crash could otherwise lose a datafile, or a
// shadow object the MDS is about to flip a placement onto or the size the
// migration gave it.  (mem's Sync is free, so the default timing is
// unchanged.)
func (s *StorageServer) syncStore(ctx *rpc.Ctx) fserr.Errno {
	return fserr.ToErrno(s.store.Sync(ctx.P))
}

// Write, Read and Flush are the daemon's data procedures as typed calls:
// Handle serves them to remote clients, and a co-located Direct-pNFS data
// server calls them directly — the paper's loopback conduit (§5) is a
// function call.  Either way a call counts as one request of its procedure
// and pays the daemon's CPU, transfer-buffer and disk charges.

// Write serves ProcIOWrite.  It also takes the block sums of the payload's
// whole chunks, which the store checks the bytes against as it copies them
// in (store.WriteSummed) — the co-located Direct-pNFS data server hands on
// its client's; the wire request has no room for them.
func (s *StorageServer) Write(ctx *rpc.Ctx, a *IOWriteArgs, sums store.BlockSums) *IOWriteRep {
	s.stats.requests.inc(ProcIOWrite)
	id, e := s.object(a.Handle)
	if e != fserr.OK {
		return &IOWriteRep{Errno: e}
	}
	n := a.Data.Len()
	ctx.UseCPU(s.cfg.Node.Processor(), serverPerOp+rpc.PerMB(serverPerMB, n))
	release := s.acquireBuffers(ctx, n)
	ctx.Defer(release)
	prev, err := s.store.GetAttr(id)
	if err != nil {
		return &IOWriteRep{Errno: objectErrno(err)}
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
		objSize, err = store.WriteSummed(s.store, id, a.Off, a.Data.Bytes, sums)
	}
	if err != nil {
		return &IOWriteRep{Errno: objectErrno(err)}
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

// Read serves ProcIORead.  It also returns the block sums the store verified
// for the real bytes it read (store.SummedReader) — the co-located
// Direct-pNFS data server hands them on to its client; the wire reply has
// no room for them.
func (s *StorageServer) Read(ctx *rpc.Ctx, a *IOReadArgs) (*IOReadRep, store.BlockSums) {
	s.stats.requests.inc(ProcIORead)
	id, e := s.object(a.Handle)
	if e != fserr.OK {
		return &IOReadRep{Errno: e}, store.BlockSums{}
	}
	at, err := s.store.GetAttr(id)
	if err != nil {
		return &IOReadRep{Errno: objectErrno(err)}, store.BlockSums{}
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
	var sums store.BlockSums
	if a.WantReal {
		rep.Data, err = ctx.ReplyBuf(n, func(buf []byte) (got int, err error) {
			got, sums, err = store.ReadSummed(s.store, id, a.Off, buf)
			return got, err
		})
		if err != nil {
			return &IOReadRep{Errno: objectErrno(err)}, store.BlockSums{}
		}
		// An object that shrank since GetAttr reads short: the reply ends
		// there.
		rep.Eof = rep.Eof || rep.Data.Len() < n
		if s.cfg.WireChecksums {
			rep.Sum, rep.HasSum = xdr.Checksum(rep.Data.Bytes), true
		}
	}
	return rep, sums
}

// Flush serves ProcIOFlush.
func (s *StorageServer) Flush(ctx *rpc.Ctx, a *IOFlushArgs) *IOFlushRep {
	s.stats.requests.inc(ProcIOFlush)
	ctx.UseCPU(s.cfg.Node.Processor(), serverPerOp)
	if _, e := s.object(a.Handle); e != fserr.OK {
		return &IOFlushRep{Errno: e}
	}
	if err := s.store.Sync(ctx.P); err != nil {
		return &IOFlushRep{Errno: fserr.ToErrno(err)}
	}
	s.cfg.Disk.Sync(ctx.P)
	return &IOFlushRep{}
}

// MetaConfig describes the metadata server.
type MetaConfig struct {
	Node *simnet.Node
	Dist DistParams
	// Dial returns the conn to the storage daemon with a stable server ID,
	// or nil for an ID the MDS may not reach: the MDS names its daemons as
	// its clients do (ClientConfig.Dial), dialing each the first time one
	// of its records names it.
	Dial func(id uint32) rpc.Conn
	// Store is the metadata repository backing the namespace (nil: a fresh
	// in-memory store).  Durable stores are journalled synchronously after
	// every namespace mutation.
	Store store.Store
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

// record is a file's placement record: the placement its bytes live under,
// and every placement whose objects exist — the current one, a migration
// target not yet committed, and a replaced one whose removal failed —
// which is what removing the file removes.
type record struct {
	place   Placement
	objects []Placement
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
	io    daemonConns // retry-wrapped, dialed through cfg.Dial

	// mu guards the mutable distribution state: the default geometry for
	// new files and the per-file records written at create and by
	// migration.
	mu         sync.Mutex
	dist       DistParams // current default distribution
	records    map[Handle]*record
	nextShadow Handle
}

// NewMetaServer creates the MDS and registers its RPC service on the node
// when a transport is configured.
func NewMetaServer(cfg MetaConfig) *MetaServer {
	if cfg.Dist.StripeSize <= 0 {
		cfg.Dist.StripeSize = 2 << 20
	}
	stats := newMetaStats(cfg.Metrics)
	if cfg.Store == nil {
		cfg.Store = mem.New()
	}
	m := &MetaServer{
		cfg: cfg, store: cfg.Store, stats: stats,
		dist:       cfg.Dist,
		records:    make(map[Handle]*record),
		nextShadow: shadowBase,
	}
	if cfg.Dial != nil {
		// Calls to the storage daemons retry under the default policy, so
		// metadata operations (create, getattr, a migration's truncate)
		// survive a daemon outage shorter than its budget.
		m.io.dial = func(id uint32) rpc.Conn {
			if conn := cfg.Dial(id); conn != nil {
				return rpc.WithRetry(conn, stats.ioRetries.Inc)
			}
			return nil
		}
	}
	if cfg.Transport != nil && cfg.Node != nil {
		if _, err := cfg.Transport.Serve(cfg.Node.Name, ServiceMeta, MetaRegistry(), m.Handle, daemonThreads); err != nil {
			panic("pvfs: register meta service: " + err.Error())
		}
	}
	return m
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

// PlacementOf returns the file's placement: its record, which create
// writes and a migration's commit rewrites.  A file without one — a record
// lost with MDS volatile state — answers an I/O error rather than a guess
// at where its bytes are; a directory has none either.
func (m *MetaServer) PlacementOf(h Handle) (Placement, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.records[h]
	if !ok {
		return Placement{}, fserr.ErrIO
	}
	return r.place, nil
}

// placed returns the placement of file h, which the namespace must hold.
func (m *MetaServer) placed(h Handle) (Placement, error) {
	if _, err := m.store.GetAttr(store.FileID(h)); err != nil {
		return Placement{}, err
	}
	return m.PlacementOf(h)
}

// onDaemons runs fn against the storage daemon of each server ID in ids in
// parallel (i is the ID's index), collecting the first error.  An ID the
// MDS cannot dial is an immediate I/O error.
func (m *MetaServer) onDaemons(ctx *rpc.Ctx, ids []uint32, fn func(ctx *rpc.Ctx, i int, conn rpc.Conn) error) error {
	conns := m.io.get(ids)
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
func (m *MetaServer) Handle(ctx *rpc.Ctx, proc uint32, req any) (rep xdr.Marshaler, status rpc.Status) {
	defer answerCrash(&rep, &status)
	m.stats.requests.inc(proc)
	ctx.UseCPU(m.cfg.Node.Processor(), metaPerOp)
	switch proc {
	case ProcLookupH:
		return m.lookup(req.(*DirOpArgs)), rpc.StatusOK
	case ProcCreateH:
		return m.create(ctx, req.(*DirOpArgs)), rpc.StatusOK
	case ProcMkdirH:
		return m.mkdir(ctx, req.(*DirOpArgs)), rpc.StatusOK
	case ProcRemoveH:
		return m.remove(ctx, req.(*DirOpArgs)), rpc.StatusOK

	case ProcRenameH:
		a := req.(*RenameHArgs)
		return m.rename(ctx, store.FileID(a.Dir), a.Src, a.Dst), rpc.StatusOK

	case ProcReadDirH:
		return m.readDir(store.FileID(req.(*ReadDirHArgs).Handle)), rpc.StatusOK

	case ProcPlacementH:
		place, err := m.placed(req.(*PlacementHArgs).Handle)
		return &PlacementRep{Errno: fserr.ToErrno(err), Data: place.Data, Dist: place.Dist}, rpc.StatusOK

	case ProcGetAttr:
		a := req.(*GetAttrArgs)
		at, err := m.store.GetAttr(store.FileID(a.Handle))
		if err != nil {
			return &GetAttrRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		if at.IsDir {
			return &GetAttrRep{IsDir: true}, rpc.StatusOK
		}
		place, err := m.PlacementOf(a.Handle)
		if err != nil {
			return &GetAttrRep{Errno: fserr.ToErrno(err)}, rpc.StatusOK
		}
		size, change, err := m.size(ctx, place)
		if err != nil {
			return &GetAttrRep{Errno: fserr.IO}, rpc.StatusOK
		}
		return &GetAttrRep{Size: size, Change: change + at.Change}, rpc.StatusOK
	}
	return nil, rpc.StatusProcUnavail
}

// walk resolves a.Name, a path relative to directory a.Dir, and applies op
// to the directory holding its last component and that component.  Every
// other component is looked up in turn: an empty one is skipped, ".." never
// resolves (no directory holds that name), and one that is not a directory
// answers NotDir.  A one-component name goes to op as it is, so the NFS
// servers' requests resolve exactly as op on that name in a.Dir would; a
// name with no component at all reaches op empty.
func (m *MetaServer) walk(a *DirOpArgs, op func(dir store.FileID, name string) (store.Attr, error)) (store.Attr, error) {
	dir, rest := store.FileID(a.Dir), strings.TrimRight(a.Name, "/")
	for {
		part, tail, more := strings.Cut(rest, "/")
		if !more {
			return op(dir, rest)
		}
		rest = tail
		if part == "" {
			continue
		}
		at, err := m.store.Lookup(dir, part)
		if err != nil {
			return store.Attr{}, err
		}
		if !at.IsDir {
			return store.Attr{}, store.ErrNotDir
		}
		dir = at.ID
	}
}

// lookup resolves a's entry; an empty name is the directory a.Dir itself.
// A file's reply carries its placement; a directory has none.  The size is
// reconstructed by GetAttr, not lookup.
func (m *MetaServer) lookup(a *DirOpArgs) *LookupRep {
	at, err := m.walk(a, func(dir store.FileID, name string) (store.Attr, error) {
		if name == "" {
			return m.store.GetAttr(dir)
		}
		return m.store.Lookup(dir, name)
	})
	var place Placement
	if err == nil && !at.IsDir {
		place, err = m.PlacementOf(Handle(at.ID))
	}
	if err != nil {
		return &LookupRep{Errno: fserr.ToErrno(err)}
	}
	return &LookupRep{Handle: Handle(at.ID), IsDir: at.IsDir, Size: -1, Dist: place.Dist, Data: place.Data}
}

// create makes a's file and records its placement.  The datafile object on
// each storage daemon of the current default distribution is created before
// the create is acknowledged — the expensive part of PVFS2 creates.  A
// create whose fan-out fails is undone: the objects made so far, the
// placement and the name go, so a retry creates the file afresh.
func (m *MetaServer) create(ctx *rpc.Ctx, a *DirOpArgs) *CreateRep {
	var dir store.FileID
	var name string
	at, err := m.walk(a, func(d store.FileID, n string) (store.Attr, error) {
		dir, name = d, n
		return m.store.Create(d, n)
	})
	if err != nil {
		return &CreateRep{Errno: fserr.ToErrno(err)}
	}
	h := Handle(at.ID)
	m.mu.Lock()
	place := Placement{Data: h, Dist: m.dist}
	m.records[h] = &record{place: place, objects: []Placement{place}}
	m.mu.Unlock()
	if err := m.createObjects(ctx, place); err != nil {
		m.removeFile(ctx, h)
		// The reply is IO either way: the fan-out's failure is what the
		// caller must hear, not a remove of a name just created.
		_ = m.store.Remove(dir, name)
		m.syncMeta(ctx)
		return &CreateRep{Errno: fserr.IO}
	}
	m.syncMeta(ctx)
	return &CreateRep{Handle: h, Dist: place.Dist, Data: h}
}

// mkdir makes a's directory (metadata only).
func (m *MetaServer) mkdir(ctx *rpc.Ctx, a *DirOpArgs) *MkdirRep {
	at, err := m.walk(a, m.store.Mkdir)
	if err != nil {
		return &MkdirRep{Errno: fserr.ToErrno(err)}
	}
	m.syncMeta(ctx)
	return &MkdirRep{Handle: Handle(at.ID)}
}

// remove unlinks a's entry; a file's datafile objects go first.
func (m *MetaServer) remove(ctx *rpc.Ctx, a *DirOpArgs) *RemoveRep {
	_, err := m.walk(a, func(dir store.FileID, name string) (store.Attr, error) {
		at, err := m.store.Lookup(dir, name)
		if err != nil {
			return at, err
		}
		if !at.IsDir {
			m.removeFile(ctx, Handle(at.ID))
		}
		return at, m.store.Remove(dir, name)
	})
	if err != nil {
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
		m.removeFile(ctx, Handle(replaced.ID))
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

// createObjects creates the datafile objects of placement p on each of its
// servers, in parallel.
func (m *MetaServer) createObjects(ctx *rpc.Ctx, p Placement) error {
	return m.onDaemons(ctx, p.Dist.Servers, func(ctx *rpc.Ctx, _ int, conn rpc.Conn) error {
		var rep IOCreateRep
		if err := conn.Call(ctx, ProcIOCreate, &IOCreateArgs{Handle: p.Data}, &rep); err != nil {
			return err
		}
		return rep.Errno.Err()
	})
}

// size reconstructs the logical size of placement p from its datafile
// sizes on its servers (decentralized metadata, paper §6.4.3), and sums
// their change counters.
func (m *MetaServer) size(ctx *rpc.Ctx, p Placement) (size int64, change uint64, err error) {
	mapper := p.Dist.Mapper()
	sizes := make([]int64, len(p.Dist.Servers))
	changes := make([]uint64, len(sizes))
	err = m.onDaemons(ctx, p.Dist.Servers, func(ctx *rpc.Ctx, dev int, conn rpc.Conn) error {
		var rep IOGetSizeRep
		if err := conn.Call(ctx, ProcIOGetSize, &IOGetSizeArgs{Handle: p.Data}, &rep); err != nil {
			return err
		}
		sizes[dev], changes[dev] = rep.Size, rep.Change
		return rep.Errno.Err()
	})
	if err != nil {
		return 0, 0, err
	}
	for dev, s := range sizes {
		size = max(size, mapper.LogicalEnd(dev, s))
		change += changes[dev]
	}
	return size, change, nil
}

// truncate sets each datafile object of placement p to the size a file of
// logical size n gives it under p's geometry.
func (m *MetaServer) truncate(ctx *rpc.Ctx, p Placement, n int64) error {
	sizes := objSizes(p.Dist.Mapper(), len(p.Dist.Servers), n)
	return m.onDaemons(ctx, p.Dist.Servers, func(ctx *rpc.Ctx, dev int, conn rpc.Conn) error {
		var rep IOTruncateRep
		if err := conn.Call(ctx, ProcIOTruncate, &IOTruncateArgs{Handle: p.Data, ObjSize: sizes[dev]}, &rep); err != nil {
			return err
		}
		return rep.Errno.Err()
	})
}

// removeFile drops file h's record and removes every object it names.
func (m *MetaServer) removeFile(ctx *rpc.Ctx, h Handle) {
	m.mu.Lock()
	r := m.records[h]
	delete(m.records, h)
	m.mu.Unlock()
	if r != nil {
		m.removeObjects(ctx, r.objects)
	}
}

// removeObjects deletes the datafile objects of placements ps, one
// placement after the other, each on its servers in parallel — on a
// drained daemon too, which the MDS still reaches — and returns the
// placements whose removal failed.  An absent object answers NoEnt, which
// counts as removed.
func (m *MetaServer) removeObjects(ctx *rpc.Ctx, ps []Placement) (failed []Placement) {
	for _, p := range ps {
		err := m.onDaemons(ctx, p.Dist.Servers, func(ctx *rpc.Ctx, _ int, conn rpc.Conn) error {
			var rep IORemoveRep
			if err := conn.Call(ctx, ProcIORemove, &IORemoveArgs{Handle: p.Data}, &rep); err != nil {
				return err
			}
			if rep.Errno == fserr.NoEnt {
				return nil
			}
			return rep.Errno.Err()
		})
		if err != nil {
			failed = append(failed, p)
		}
	}
	return failed
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
