package nfs

import (
	"strings"
	"sync"
	"time"

	"dpnfs/internal/fserr"
	"dpnfs/internal/metrics"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/sim"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// Backend is the data half of the storage engine behind an NFSv4.1 server —
// the one role every server has.  The namespace and the layouts are optional
// roles (Namespace, LayoutSource) that NewServer discovers on the same value;
// a server whose backend lacks one answers those operations itself.  Which
// server of which architecture has which role:
//
//	server                          backend               Namespace  LayoutSource
//	Direct-pNFS MDS                 co-located PVFS2 MDS  yes        yes (translated, exact)
//	Direct-pNFS data server         local storage daemon  no         no
//	2/3-tier pNFS MDS               PVFS2 client          yes        yes (blind striping)
//	2/3-tier pNFS data server       PVFS2 client          yes        no
//	plain NFSv4 server              PVFS2 client          yes        no
//	unit tests, pnfs-demo           StoreBackend          yes        no
//
// Read returns the payload, whether it reaches EOF, and — from a backend
// whose store verified the bytes block by block (store.SummedReader) — the
// block sums of the payload's whole blocks, which the server hands to the
// client (ResRead.Blocks).  Write takes the sums the client sent with the
// payload's whole blocks (OpWrite.Blocks), salted where the client keeps
// them: a backend stores nothing and fails with store.ErrCorrupt unless the
// bytes match them (store.WriteSummed, store.CheckSums).
type Backend interface {
	Read(ctx *rpc.Ctx, fh uint64, off, n int64, wantReal bool) (payload.Payload, bool, store.BlockSums, error)
	Write(ctx *rpc.Ctx, fh uint64, off int64, data payload.Payload, sums store.BlockSums, stable bool) (int64, error)
	Commit(ctx *rpc.Ctx, fh uint64) error
}

// Namespace is the role of a backend that owns names and attributes.  A
// server without it (a Direct-pNFS data server: "no namespace or layout
// duties", paper §4.2) answers every namespace operation with Inval.
type Namespace interface {
	Root() uint64
	Lookup(ctx *rpc.Ctx, dir uint64, name string) (uint64, Attr, error)
	Create(ctx *rpc.Ctx, dir uint64, name string) (uint64, Attr, error)
	Mkdir(ctx *rpc.Ctx, dir uint64, name string) (uint64, Attr, error)
	Remove(ctx *rpc.Ctx, dir uint64, name string) error
	Rename(ctx *rpc.Ctx, dir uint64, src, dst string) error
	ReadDir(ctx *rpc.Ctx, dir uint64) ([]string, error)
	GetAttr(ctx *rpc.Ctx, fh uint64) (Attr, error)
}

// LayoutSource is the role of a pNFS metadata server's backend.  A server
// without it fails GETDEVICELIST, which is how a mounting client learns to
// proxy its I/O through the server instead.
type LayoutSource interface {
	DevList(ctx *rpc.Ctx) ([]pnfs.DeviceInfo, error)
	LayoutGet(ctx *rpc.Ctx, fh uint64) (*pnfs.FileLayout, error)
	LayoutCommit(ctx *rpc.Ctx, fh uint64, newSize int64) error
}

// The CPU cost model of the in-kernel NFS implementation: the paper's Linux
// 2.6.17 kernel NFS stack.  The per-op costs are far below PVFS2's
// user-level daemon costs, which is what lets the NFSv4 architectures win
// every small-I/O workload in §6.
const (
	serverPerOp = 90 * time.Microsecond // per compound operation
	serverPerMB = 3 * time.Millisecond  // data movement on the server, per MiB
	clientPerOp = 70 * time.Microsecond // client-side RPC construction, per compound op
	clientPerMB = 5 * time.Millisecond  // client-side page-cache copy, per MiB
	cachePerOp  = 4 * time.Microsecond  // page-cache hit / buffered write, per call
)

// session is one NFSv4.1 session's slot table with per-slot replay state.
type session struct {
	lastSeq []uint32
	lastRep []*CompoundRep
}

// serverThreads is the number of NFS server threads (paper: 8).
const serverThreads = 8

// ServerConfig wires a Server to its node and backend.
type ServerConfig struct {
	Node    *simnet.Node
	Backend Backend
	// Transport, when set together with Node, registers the service under
	// Node's name (simulated fabric or real TCP).  Without it the server is
	// only reachable through Handle (rpc.ListenTCP in the demo and tests).
	Transport rpc.Transport
	// Service overrides the registered service name (default Service); the
	// cluster layer uses distinct names for metadata and data roles.
	Service string
	// Metrics is the shared observability registry (docs/METRICS.md).
	// Nil disables server-side metrics.
	Metrics *metrics.Registry
	// WireChecksums attaches a CRC32C of each READ payload to the reply so
	// clients can detect corruption introduced after the block checksum was
	// verified (buffer management bugs, transport scribbles).  Without it a
	// READ carries the backend's block sums when it has them, which cover
	// the same window block by block.
	WireChecksums bool
}

// Server is an NFSv4.1 server instance (metadata or data role is determined
// entirely by its backend).  Handle is safe for concurrent calls: the
// simulated transport interleaves handler processes cooperatively, the TCP
// transport runs them on real goroutines.
type Server struct {
	cfg ServerConfig
	// The backend's optional roles, nil when it does not have them.
	ns      Namespace
	layouts LayoutSource

	// Per-op counters are resolved once at construction and indexed by op
	// number, so the COMPOUND loop records with a single atomic add.
	compounds  *metrics.Counter
	replays    *metrics.Counter
	bytesRead  *metrics.Counter
	bytesWrite *metrics.Counter
	opCounters [len(opTable)]*metrics.Counter

	mu       sync.Mutex // guards nextID, sessions, clients, session slots
	nextID   uint64
	sessions map[uint64]*session
	clients  map[string]uint64
}

// NewServer creates the server and registers its RPC service when a
// transport is configured.
func NewServer(cfg ServerConfig) *Server {
	s := &Server{
		cfg:      cfg,
		sessions: make(map[uint64]*session),
		clients:  make(map[string]uint64),
	}
	s.ns, _ = cfg.Backend.(Namespace)
	s.layouts, _ = cfg.Backend.(LayoutSource)
	service := cfg.Service
	if service == "" {
		service = Service
	}
	reg := cfg.Metrics // nil-safe: instruments land in the discard registry
	s.compounds = reg.CounterVec("nfs_server_compounds_total",
		"COMPOUND procedures dispatched.", "service").With(service)
	s.replays = reg.CounterVec("nfs_server_replays_total",
		"Retransmissions answered from the session replay cache.", "service").With(service)
	s.bytesRead = reg.CounterVec("nfs_server_bytes_read_total",
		"Payload bytes served by READ.", "service").With(service)
	s.bytesWrite = reg.CounterVec("nfs_server_bytes_written_total",
		"Payload bytes accepted by WRITE.", "service").With(service)
	opsVec := reg.CounterVec("nfs_server_ops_total",
		"Operations executed inside COMPOUNDs, by RFC 5661 op name.", "service", "op")
	// Series snapshots render in registration order: op-number order.
	for num, row := range opTable {
		if row.op != nil {
			s.opCounters[num] = opsVec.With(service, row.name)
		}
	}
	if cfg.Transport != nil && cfg.Node != nil {
		if _, err := cfg.Transport.Serve(cfg.Node.Name, service, Registry(), s.Handle, serverThreads); err != nil {
			panic("nfs: register service: " + err.Error())
		}
	}
	return s
}

// Handle dispatches one COMPOUND.
func (s *Server) Handle(ctx *rpc.Ctx, proc uint32, req any) (xdr.Marshaler, rpc.Status) {
	if proc != ProcCompound {
		return nil, rpc.StatusProcUnavail
	}
	args, ok := req.(*CompoundArgs)
	if !ok {
		return nil, rpc.StatusGarbageArgs
	}
	s.compounds.Inc()
	cpu := s.cfg.Node.Processor()
	ctx.UseCPU(cpu, time.Duration(len(args.Ops))*serverPerOp)

	// Session check and replay cache.  The lock covers only the in-memory
	// checks — backend work in run() may suspend the handler process.
	var sess *session
	var cacheReply bool
	if args.Session != 0 {
		s.mu.Lock()
		sess = s.sessions[args.Session]
		if sess == nil {
			s.mu.Unlock()
			return &CompoundRep{Status: fserr.Stale}, rpc.StatusOK
		}
		if int(args.Slot) >= len(sess.lastSeq) {
			s.mu.Unlock()
			return &CompoundRep{Status: fserr.Inval}, rpc.StatusOK
		}
		if args.Seq == sess.lastSeq[args.Slot] && sess.lastRep[args.Slot] != nil {
			// Retransmission: answer from the replay cache.
			rep := sess.lastRep[args.Slot]
			s.mu.Unlock()
			s.replays.Inc()
			return rep, rpc.StatusOK
		}
		if args.Seq != sess.lastSeq[args.Slot]+1 &&
			!(args.Seq == sess.lastSeq[args.Slot] && sess.lastRep[args.Slot] == nil) {
			// Neither the next sequence nor a retransmission of an
			// uncached (idempotent) compound, which is simply re-executed.
			s.mu.Unlock()
			return &CompoundRep{Status: fserr.Inval}, rpc.StatusOK
		}
		s.mu.Unlock()
		if cacheReply = !compoundIdempotent(args.Ops); cacheReply {
			// The reply outlives its first transmission in the replay
			// cache, so its payloads must not alias pooled transfer
			// buffers.  Idempotent compounds (the READ hot path) skip the
			// cache — RFC 5661's csa_cachethis=false — and may hand out
			// pooled reply buffers.
			ctx.Retain()
		}
	}

	rep := s.run(ctx, cpu, args)
	// A store that crashed under the compound is answered as a down node
	// is, and nothing is cached: the caller's retry re-executes it.
	down := rep.Status == fserr.Unavailable

	if sess != nil {
		s.mu.Lock()
		sess.lastSeq[args.Slot] = args.Seq
		if cacheReply && !down {
			sess.lastRep[args.Slot] = rep
		} else {
			sess.lastRep[args.Slot] = nil
		}
		s.mu.Unlock()
	}
	if down {
		return nil, rpc.StatusDown
	}
	return rep, rpc.StatusOK
}

// compoundIdempotent reports whether every op in the list is idempotent.
func compoundIdempotent(ops []Op) bool {
	for _, op := range ops {
		if n := op.Num(); !known(n) || !opTable[n].idempotent {
			return false
		}
	}
	return true
}

// lacks reports whether the backend is without the role r.
func (s *Server) lacks(r role) bool {
	return r == roleNamespace && s.ns == nil || r == roleLayouts && s.layouts == nil
}

// run executes the op list with a current-filehandle cursor.  Execution
// stops at the first operation that fails — because the backend lacks the
// role it needs, because it names an entry no directory can hold
// (namesValid), or in exec — and that operation's own result type carries
// the status.
func (s *Server) run(ctx *rpc.Ctx, cpu *sim.KServer, args *CompoundArgs) *CompoundRep {
	rep := &CompoundRep{}
	var cur uint64
	fail := func(r Result) *CompoundRep {
		rep.Results = append(rep.Results, r)
		rep.Status = r.Status()
		return rep
	}
	for _, op := range args.Ops {
		n := op.Num()
		if !known(n) {
			return fail(&ResPutFH{errnoOnly{fserr.Inval}})
		}
		row := &opTable[n]
		s.opCounters[n].Inc()
		if s.lacks(row.needs) {
			return fail(row.res(row.absent))
		}
		if !namesValid(op) {
			return fail(row.res(fserr.Inval))
		}
		res, err := s.exec(ctx, cpu, &cur, op)
		if err != nil {
			return fail(row.res(fserr.ToErrno(err)))
		}
		rep.Results = append(rep.Results, res)
	}
	return rep
}

// namesValid reports whether every entry name op carries is one name within
// one directory.  The PVFS2 metadata manager behind the exports resolves a
// '/' in a name as a path, and "", "." and ".." name no entry of their own,
// so the server refuses them all before a backend sees them.
func namesValid(op Op) bool {
	valid := func(name string) bool {
		return name != "" && name != "." && name != ".." && !strings.Contains(name, "/")
	}
	switch o := op.(type) {
	case *OpLookup:
		return valid(o.Name)
	case *OpOpen:
		return valid(o.Name)
	case *OpCreate:
		return valid(o.Name)
	case *OpRemove:
		return valid(o.Name)
	case *OpRename:
		return valid(o.Src) && valid(o.Dst)
	}
	return true
}

// exec runs one operation whose role the backend has, moving the current
// filehandle as the operation defines.
func (s *Server) exec(ctx *rpc.Ctx, cpu *sim.KServer, cur *uint64, op Op) (Result, error) {
	b, ns, layouts := s.cfg.Backend, s.ns, s.layouts
	switch o := op.(type) {
	case *OpExchangeID:
		s.mu.Lock()
		id, ok := s.clients[o.ClientName]
		if !ok {
			s.nextID++
			id = s.nextID
			s.clients[o.ClientName] = id
		}
		s.mu.Unlock()
		return &ResExchangeID{ClientID: id}, nil

	case *OpCreateSession:
		slots := o.Slots
		if slots == 0 || slots > 256 {
			slots = 64
		}
		s.mu.Lock()
		s.nextID++
		sid := s.nextID
		s.sessions[sid] = &session{
			lastSeq: make([]uint32, slots),
			lastRep: make([]*CompoundRep, slots),
		}
		s.mu.Unlock()
		return &ResCreateSession{Session: sid, Slots: slots}, nil

	case *OpPutRootFH:
		*cur = ns.Root()
		return &ResPutRootFH{}, nil

	case *OpPutFH:
		*cur = o.FH
		return &ResPutFH{}, nil

	case *OpLookup:
		fh, at, err := ns.Lookup(ctx, *cur, o.Name)
		if err != nil {
			return nil, err
		}
		*cur = fh
		return &ResLookup{fhAttr{FH: fh, Attr: at}}, nil

	case *OpOpen:
		fh, at, err := ns.Lookup(ctx, *cur, o.Name)
		if err == store.ErrNotExist && o.Create {
			fh, at, err = ns.Create(ctx, *cur, o.Name)
		}
		if err == nil && at.IsDir {
			err = store.ErrIsDir // NFS4ERR_ISDIR (RFC 5661 §18.16)
		}
		if err != nil {
			return nil, err
		}
		*cur = fh
		s.mu.Lock()
		s.nextID++
		stateID := s.nextID
		s.mu.Unlock()
		return &ResOpen{fhAttr: fhAttr{FH: fh, Attr: at}, StateID: stateID}, nil

	case *OpClose:
		return &ResClose{}, nil

	case *OpGetAttr:
		at, err := ns.GetAttr(ctx, *cur)
		return &ResGetAttr{Attr: at}, err

	case *OpRead:
		ctx.UseCPU(cpu, rpc.PerMB(serverPerMB, o.Len))
		data, eof, blocks, err := b.Read(ctx, *cur, o.Off, o.Len, o.WantReal)
		if err != nil {
			return nil, err
		}
		if n := data.Len(); n > 0 {
			s.bytesRead.Add(uint64(n))
		}
		res := &ResRead{Eof: eof, Data: data}
		if s.cfg.WireChecksums && data.Bytes != nil {
			res.Sum, res.HasSum = xdr.Checksum(data.Bytes), true
		} else {
			res.Blocks = blocks
		}
		return res, nil

	case *OpWrite:
		ctx.UseCPU(cpu, rpc.PerMB(serverPerMB, o.Data.Len()))
		newSize, err := b.Write(ctx, *cur, o.Off, o.Data, o.Blocks, o.Stable)
		if err != nil {
			return nil, err
		}
		if n := o.Data.Len(); n > 0 {
			s.bytesWrite.Add(uint64(n))
		}
		return &ResWrite{Count: o.Data.Len(), NewSize: newSize}, nil

	case *OpCommit:
		return &ResCommit{}, b.Commit(ctx, *cur)

	case *OpCreate:
		fh, at, err := ns.Mkdir(ctx, *cur, o.Name)
		if err != nil {
			return nil, err
		}
		*cur = fh
		return &ResCreate{fhAttr{FH: fh, Attr: at}}, nil

	case *OpRemove:
		return &ResRemove{}, ns.Remove(ctx, *cur, o.Name)

	case *OpRename:
		return &ResRename{}, ns.Rename(ctx, *cur, o.Src, o.Dst)

	case *OpReadDir:
		names, err := ns.ReadDir(ctx, *cur)
		return &ResReadDir{Names: names}, err

	// The two layout queries answer Inval whatever the source's error: it is
	// how a mounting client learns to proxy its I/O through this server.
	case *OpGetDevList:
		devs, err := layouts.DevList(ctx)
		if err != nil {
			return nil, store.ErrInval
		}
		return &ResGetDevList{Devices: devs}, nil

	case *OpLayoutGet:
		l, err := layouts.LayoutGet(ctx, *cur)
		if err != nil {
			return nil, store.ErrInval
		}
		return &ResLayoutGet{Layout: *l}, nil

	case *OpLayoutCommit:
		return &ResLayoutCommit{}, layouts.LayoutCommit(ctx, *cur, o.NewSize)

	case *OpLayoutReturn:
		return &ResLayoutReturn{}, nil
	}
	return nil, store.ErrInval
}

// StoreBackend serves a local store.Store.  It is the backend for plain NFS
// servers in unit tests and the TCP demo: a Backend and a Namespace, not a
// LayoutSource, so clients mounting it proxy all I/O through it.  Write with
// stable=true and Commit drive the store's Sync, so a durable store
// (store/wal) makes its journal durable exactly at the NFS commit points.
type StoreBackend struct {
	Store store.Store
}

// NewStoreBackend wraps an existing store.
func NewStoreBackend(st store.Store) *StoreBackend {
	return &StoreBackend{Store: st}
}

// Root implements Namespace.
func (b *StoreBackend) Root() uint64 { return uint64(b.Store.Root()) }

// Lookup implements Namespace.
func (b *StoreBackend) Lookup(_ *rpc.Ctx, dir uint64, name string) (uint64, Attr, error) {
	at, err := b.Store.Lookup(store.FileID(dir), name)
	if err != nil {
		return 0, Attr{}, err
	}
	return uint64(at.ID), attrOf(at), nil
}

// Create implements Namespace.
func (b *StoreBackend) Create(_ *rpc.Ctx, dir uint64, name string) (uint64, Attr, error) {
	at, err := b.Store.Create(store.FileID(dir), name)
	if err != nil {
		return 0, Attr{}, err
	}
	return uint64(at.ID), attrOf(at), nil
}

// Mkdir implements Namespace.
func (b *StoreBackend) Mkdir(_ *rpc.Ctx, dir uint64, name string) (uint64, Attr, error) {
	at, err := b.Store.Mkdir(store.FileID(dir), name)
	if err != nil {
		return 0, Attr{}, err
	}
	return uint64(at.ID), attrOf(at), nil
}

// Remove implements Namespace.
func (b *StoreBackend) Remove(_ *rpc.Ctx, dir uint64, name string) error {
	return b.Store.Remove(store.FileID(dir), name)
}

// Rename implements Namespace.
func (b *StoreBackend) Rename(_ *rpc.Ctx, dir uint64, src, dst string) error {
	return b.Store.Rename(store.FileID(dir), src, store.FileID(dir), dst)
}

// ReadDir implements Namespace.
func (b *StoreBackend) ReadDir(_ *rpc.Ctx, dir uint64) ([]string, error) {
	return b.Store.ReadDir(store.FileID(dir))
}

// GetAttr implements Namespace.
func (b *StoreBackend) GetAttr(_ *rpc.Ctx, fh uint64) (Attr, error) {
	at, err := b.Store.GetAttr(store.FileID(fh))
	if err != nil {
		return Attr{}, err
	}
	return attrOf(at), nil
}

// Read implements Backend.
func (b *StoreBackend) Read(ctx *rpc.Ctx, fh uint64, off, n int64, wantReal bool) (payload.Payload, bool, store.BlockSums, error) {
	at, err := b.Store.GetAttr(store.FileID(fh))
	if err != nil {
		return payload.Payload{}, false, store.BlockSums{}, err
	}
	if off >= at.Size {
		n = 0
	} else if off+n > at.Size {
		n = at.Size - off
	}
	eof := off+n >= at.Size
	if !wantReal {
		return payload.Synthetic(n), eof, store.BlockSums{}, nil
	}
	var sums store.BlockSums
	data, err := ctx.ReplyBuf(n, func(buf []byte) (got int, err error) {
		got, sums, err = store.ReadSummed(b.Store, store.FileID(fh), off, buf)
		return got, err
	})
	// A file that shrank since GetAttr reads short: the reply ends there.
	return data, eof || data.Len() < n, sums, err
}

// Write implements Backend.
func (b *StoreBackend) Write(ctx *rpc.Ctx, fh uint64, off int64, data payload.Payload, sums store.BlockSums, stable bool) (int64, error) {
	var newSize int64
	var err error
	if data.IsSynthetic() {
		newSize, err = b.Store.WriteSyntheticAt(store.FileID(fh), off, data.Len())
	} else {
		newSize, err = store.WriteSummed(b.Store, store.FileID(fh), off, data.Bytes, sums)
	}
	if err != nil {
		return 0, err
	}
	if stable {
		if err := b.Store.Sync(ctx.P); err != nil {
			return 0, err
		}
	}
	return newSize, nil
}

// Commit implements Backend.
func (b *StoreBackend) Commit(ctx *rpc.Ctx, fh uint64) error {
	return b.Store.Sync(ctx.P)
}

func attrOf(at store.Attr) Attr {
	return Attr{IsDir: at.IsDir, Size: at.Size, Change: at.Change}
}
