package cluster

import (
	"sync"
	"time"

	"dpnfs/internal/fserr"
	"dpnfs/internal/nfs"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/pvfs"
	"dpnfs/internal/rpc"
	"dpnfs/internal/simnet"
	"dpnfs/internal/store"
)

// directDSBackend is the Direct-pNFS data server: the NFS server accesses
// the co-located PVFS2 storage daemon through a loopback conduit (paper
// §5), so offsets arriving from clients address the stripe objects
// directly.  The conduit is a call of the daemon's typed data procedures,
// which charge every daemon cost (CPU, fixed buffer pool, disk) as they do
// for a remote caller.  It is an nfs.Backend and nothing else: data servers
// perform no namespace or layout duties (paper §4.2).
type directDSBackend struct {
	storage *pvfs.StorageServer
	node    *simnet.Node
}

// conduitPerOp is the loopback PVFS2 client's per-request cost: half the
// client library's per-op cost, the network half of the crossing being
// absent.
const conduitPerOp = 225 * time.Microsecond

// conduit charges the loopback PVFS2 client cost on the data server node —
// the prototype funnels NFS I/O through the local PVFS2 client and loopback
// device rather than direct VFS access (paper §5).
func (b *directDSBackend) conduit(ctx *rpc.Ctx, bytes int64) {
	ctx.UseCPU(b.node.CPU, conduitPerOp+rpc.PerMB(time.Millisecond, bytes))
}

func (b *directDSBackend) Read(ctx *rpc.Ctx, fh uint64, off, n int64, wantReal bool) (payload.Payload, bool, error) {
	b.conduit(ctx, n)
	rep := b.storage.Read(ctx, &pvfs.IOReadArgs{Handle: pvfs.Handle(fh), Off: off, Len: n, WantReal: wantReal})
	return rep.Data, rep.Eof, rep.Errno.Err()
}

func (b *directDSBackend) Write(ctx *rpc.Ctx, fh uint64, off int64, data payload.Payload, stable bool) (int64, error) {
	b.conduit(ctx, data.Len())
	rep := b.storage.Write(ctx, &pvfs.IOWriteArgs{Handle: pvfs.Handle(fh), Off: off, Data: data, Sync: stable})
	return rep.ObjSize, rep.Errno.Err()
}

func (b *directDSBackend) Commit(ctx *rpc.Ctx, fh uint64) error {
	b.conduit(ctx, 0)
	return b.storage.Flush(ctx, &pvfs.IOFlushArgs{Handle: pvfs.Handle(fh)}).Errno.Err()
}

// directMDSBackend is the Direct-pNFS metadata server: co-located with the
// PVFS2 metadata manager (direct in-process calls — no overlapping
// metadata protocols, paper §4.1), serving layouts through the layout
// translator.  File sizes are maintained locally from LAYOUTCOMMITs, so
// GETATTR never ripples into the parallel FS.
type directMDSBackend struct {
	meta  *pvfs.MetaServer
	agg   string
	aggP  []int64
	proxy *pvfs.Client // fallback I/O path through the MDS

	deviceTable
}

// deviceTable is the half of a LayoutSource both metadata servers share: the
// advertised data-server list and the layout generation, which the
// membership reconciler replaces while server processes serve
// GETDEVICELIST/LAYOUTGET.
type deviceTable struct {
	mu      sync.Mutex
	devices []pnfs.DeviceInfo
	gen     uint64
}

func (t *deviceTable) snapshot() ([]pnfs.DeviceInfo, uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.devices, t.gen
}

// set replaces the advertised device list and layout generation after a
// membership change.
func (t *deviceTable) set(devs []pnfs.DeviceInfo, gen uint64) {
	t.mu.Lock()
	t.devices = devs
	t.gen = gen
	t.mu.Unlock()
}

// setGen bumps only the generation (3-tier membership: the data-server tier
// is unchanged but clients must refetch layouts).
func (t *deviceTable) setGen(gen uint64) {
	t.mu.Lock()
	t.gen = gen
	t.mu.Unlock()
}

// DevList implements nfs.LayoutSource.
func (t *deviceTable) DevList(*rpc.Ctx) ([]pnfs.DeviceInfo, error) {
	devs, _ := t.snapshot()
	return devs, nil
}

// metaCall invokes the co-located PVFS2 metadata manager in-process — through
// MetaServer.Handle, never around it, so the per-procedure request counters
// and the MetaPerOp CPU charge are those of a remote caller — copies the
// typed reply into rep and turns its status (errno points into rep) into its
// error: pvfs.Client's call helper, minus the wire.
func metaCall[R any](b *directMDSBackend, ctx *rpc.Ctx, proc uint32, req any, rep *R, errno *fserr.Errno) error {
	resp, status := b.meta.Handle(ctx, proc, req)
	if status != rpc.StatusOK {
		return fserr.ErrIO
	}
	*rep = *any(resp).(*R)
	return errno.Err()
}

func (b *directMDSBackend) Root() uint64 { return uint64(b.meta.RootHandle()) }

func (b *directMDSBackend) Lookup(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	var rep pvfs.LookupRep
	if err := metaCall(b, ctx, pvfs.ProcLookupH, &pvfs.DirOpArgs{Dir: pvfs.Handle(dir), Name: name}, &rep, &rep.Errno); err != nil {
		return 0, nfs.Attr{}, err
	}
	at, _ := b.meta.Namespace().GetAttr(store.FileID(rep.Handle))
	return uint64(rep.Handle), nfs.Attr{IsDir: rep.IsDir, Size: at.Size, Change: at.Change}, nil
}

func (b *directMDSBackend) Create(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	var rep pvfs.CreateRep
	err := metaCall(b, ctx, pvfs.ProcCreateH, &pvfs.DirOpArgs{Dir: pvfs.Handle(dir), Name: name}, &rep, &rep.Errno)
	return uint64(rep.Handle), nfs.Attr{}, err
}

func (b *directMDSBackend) Mkdir(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	var rep pvfs.MkdirRep
	err := metaCall(b, ctx, pvfs.ProcMkdirH, &pvfs.DirOpArgs{Dir: pvfs.Handle(dir), Name: name}, &rep, &rep.Errno)
	return uint64(rep.Handle), nfs.Attr{IsDir: true}, err
}

func (b *directMDSBackend) Remove(ctx *rpc.Ctx, dir uint64, name string) error {
	var rep pvfs.RemoveRep
	return metaCall(b, ctx, pvfs.ProcRemoveH, &pvfs.DirOpArgs{Dir: pvfs.Handle(dir), Name: name}, &rep, &rep.Errno)
}

func (b *directMDSBackend) Rename(ctx *rpc.Ctx, dir uint64, src, dst string) error {
	var rep pvfs.RemoveRep
	return metaCall(b, ctx, pvfs.ProcRenameH, &pvfs.RenameHArgs{Dir: pvfs.Handle(dir), Src: src, Dst: dst}, &rep, &rep.Errno)
}

func (b *directMDSBackend) ReadDir(ctx *rpc.Ctx, dir uint64) ([]string, error) {
	var rep pvfs.ReadDirRep
	if err := metaCall(b, ctx, pvfs.ProcReadDirH, &pvfs.ReadDirHArgs{Handle: pvfs.Handle(dir)}, &rep, &rep.Errno); err != nil {
		return nil, err
	}
	return rep.Names, nil
}

// GetAttr serves from the MDS-local namespace: sizes arrive via
// LAYOUTCOMMIT, so no parallel-FS metadata ripple occurs (paper §4.1).
func (b *directMDSBackend) GetAttr(ctx *rpc.Ctx, fh uint64) (nfs.Attr, error) {
	at, err := b.meta.Namespace().GetAttr(store.FileID(fh))
	if err != nil {
		return nfs.Attr{}, err
	}
	return nfs.Attr{IsDir: at.IsDir, Size: at.Size, Change: at.Change}, nil
}

func (b *directMDSBackend) SetSize(ctx *rpc.Ctx, fh uint64, size int64) error {
	var rep pvfs.TruncateRep
	if err := metaCall(b, ctx, pvfs.ProcTruncate, &pvfs.TruncateArgs{Handle: pvfs.Handle(fh), Size: size}, &rep, &rep.Errno); err != nil {
		return err
	}
	return b.meta.Namespace().Truncate(store.FileID(fh), size)
}

// Read and Write proxy through the co-located PVFS2 client; they are a
// fallback only — Direct-pNFS clients hold layouts and go to the data
// servers directly.  The proxy resolves each file's current placement
// in-process, so it follows migrations.
func (b *directMDSBackend) openCurrent(fh uint64) *pvfs.File {
	place := b.meta.PlacementOf(pvfs.Handle(fh))
	return b.proxy.OpenPlaced(pvfs.Handle(fh), place.Data, place.Dist)
}

func (b *directMDSBackend) Read(ctx *rpc.Ctx, fh uint64, off, n int64, wantReal bool) (payload.Payload, bool, error) {
	f := b.openCurrent(fh)
	data, got, err := b.proxy.Read(ctx, f, off, n, wantReal)
	return data, got < n, err
}

func (b *directMDSBackend) Write(ctx *rpc.Ctx, fh uint64, off int64, data payload.Payload, stable bool) (int64, error) {
	f := b.openCurrent(fh)
	size, err := b.proxy.Write(ctx, f, off, data, stable)
	if err == nil {
		b.meta.Namespace().SetSize(store.FileID(fh), size)
	}
	return size, err
}

func (b *directMDSBackend) Commit(ctx *rpc.Ctx, fh uint64) error {
	return b.proxy.Sync(ctx, b.openCurrent(fh))
}

// LayoutGet translates the parallel FS's native layout into a pNFS
// file-based layout (paper §4.2): exact distribution, direct offsets.
// Under the default round-robin aggregation the layout comes from the
// file's own placement — stable device IDs, the datafile handle, and the
// current layout generation — so it stays exact across membership changes.
func (b *directMDSBackend) LayoutGet(ctx *rpc.Ctx, fh uint64) (*pnfs.FileLayout, error) {
	devices, gen := b.snapshot()
	if b.agg != "" {
		// Custom aggregation drivers keep the whole-cluster translation;
		// membership changes refuse to run alongside them.
		nodes := make([]string, len(devices))
		for i, d := range devices {
			nodes[i] = d.Addr
		}
		native := pnfs.NativeLayout{
			Aggregation:  b.agg,
			Params:       b.aggP,
			StorageNodes: nodes,
			ObjectHandle: fh,
		}
		l, err := pnfs.Translate(native, func(node string) (pnfs.DeviceID, bool) {
			for _, d := range devices {
				if d.Addr == node {
					return d.ID, true
				}
			}
			return 0, false
		})
		if err != nil {
			return nil, err
		}
		l.Gen = gen
		return l, nil
	}
	place := b.meta.PlacementOf(pvfs.Handle(fh))
	l := &pnfs.FileLayout{
		Aggregation: pnfs.AggRoundRobin,
		Params:      []int64{place.Dist.StripeSize},
		Direct:      true,
		Gen:         gen,
	}
	for _, id := range place.Dist.ServerIDs() {
		l.Devices = append(l.Devices, pnfs.DeviceID(id))
		l.FHs = append(l.FHs, uint64(place.Data))
	}
	return l, nil
}

// LayoutCommit records the client-reported size in the MDS namespace
// ("informs the NFSv4.1 server of changes to file metadata", paper §5).
func (b *directMDSBackend) LayoutCommit(ctx *rpc.Ctx, fh uint64, newSize int64) error {
	return b.meta.Namespace().SetSize(store.FileID(fh), newSize)
}

// blindLayouts generates the two/three-tier file-based layouts: logical
// round-robin striping across the data servers with no knowledge of the
// underlying distribution (paper §4.1: "forces them to distribute I/O
// requests among data servers without regard for the actual location").
//
// The pNFS server's device ordering is arbitrary relative to the parallel
// FS's internal device order — alignment would be coincidental — so the
// generated layouts rotate the device list by shift, which makes stripe
// unit u land on the data server one past the storage node that actually
// holds it (the general, misaligned case the paper measures).
type blindLayouts struct {
	deviceTable
	stripe int64
	shift  int
}

// LayoutGet implements nfs.LayoutSource: every file gets the same rotated
// stripe over the data servers, addressed by its own filehandle.
func (bl *blindLayouts) LayoutGet(_ *rpc.Ctx, fh uint64) (*pnfs.FileLayout, error) {
	devs, gen := bl.snapshot()
	l := &pnfs.FileLayout{
		Aggregation: pnfs.AggRoundRobin,
		Params:      []int64{bl.stripe},
		Direct:      false,
		Gen:         gen,
	}
	n := len(devs)
	for i := range devs {
		d := devs[(i+bl.shift)%n]
		l.Devices = append(l.Devices, d.ID)
		l.FHs = append(l.FHs, fh)
	}
	return l, nil
}

// LayoutCommit is metadata-free here: sizes are always reconstructed from
// the datafiles, so there is nothing to publish.
func (bl *blindLayouts) LayoutCommit(*rpc.Ctx, uint64, int64) error { return nil }

// blindMDSBackend is the two/three-tier pNFS metadata server: the export
// every server of those architectures is, plus the layout role only it has.
type blindMDSBackend struct {
	*exportBackend
	*blindLayouts
}

// exportBackend serves NFS from a PVFS2 client — the single-server NFSv4
// export and the two/three-tier data and metadata servers.  It is an
// nfs.Backend and an nfs.Namespace; only the two/three-tier metadata server
// adds the layout role (blindMDSBackend).
//
// The conduit costs model the kernel NFSD ↔ PVFS2 kernel-module data path:
// reads stream with little extra copying, but writes cross the user/kernel
// boundary several times before the cacheless PVFS2 client pushes them out
// synchronously — the asymmetry behind NFSv4's flat, low write curve
// against its NIC-bound read curve (Figures 6a vs 7a).
type exportBackend struct {
	pv   *pvfs.Client
	node *simnet.Node
	dist pvfs.DistParams

	// Placement-aware (dynamic) mode: off until the first membership change
	// — the legacy static-distribution fast path keeps pre-membership runs
	// byte-identical.  Once on, every data op resolves the file's current
	// placement through PLACEMENT_H, cached per handle until the next
	// generation bump.
	mu       sync.Mutex
	dynamic  bool
	placeGen uint64
	places   map[pvfs.Handle]cachedPlace
}

type cachedPlace struct {
	data pvfs.Handle
	dist pvfs.DistParams
	gen  uint64
}

// setDynamic switches the export to placement-aware mode at generation gen,
// invalidating the per-handle placement cache.
func (b *exportBackend) setDynamic(gen uint64) {
	b.mu.Lock()
	b.dynamic = true
	b.placeGen = gen
	b.mu.Unlock()
}

// openCurrent opens fh for data access: the static distribution before any
// membership change, the file's live placement after.
func (b *exportBackend) openCurrent(ctx *rpc.Ctx, fh uint64) (*pvfs.File, error) {
	h := pvfs.Handle(fh)
	b.mu.Lock()
	dyn, gen := b.dynamic, b.placeGen
	cp, ok := b.places[h]
	b.mu.Unlock()
	if !dyn {
		return b.pv.OpenHandle(h, b.dist), nil
	}
	if ok && cp.gen == gen {
		return b.pv.OpenPlaced(h, cp.data, cp.dist), nil
	}
	data, dist, err := b.pv.PlacementH(ctx, h)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if b.places == nil {
		b.places = make(map[pvfs.Handle]cachedPlace)
	}
	b.places[h] = cachedPlace{data: data, dist: dist, gen: gen}
	b.mu.Unlock()
	return b.pv.OpenPlaced(h, data, dist), nil
}

const (
	exportReadPerMB  = 2 * time.Millisecond
	exportWritePerMB = 30 * time.Millisecond
)

func (b *exportBackend) conduit(ctx *rpc.Ctx, perMBCost time.Duration, bytes int64) {
	if b.node != nil {
		ctx.UseCPU(b.node.CPU, rpc.PerMB(perMBCost, bytes))
	}
}

func (b *exportBackend) Root() uint64 { return uint64(b.pv.RootHandle()) }

func (b *exportBackend) Lookup(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	h, isDir, err := b.pv.LookupH(ctx, pvfs.Handle(dir), name)
	if err != nil {
		return 0, nfs.Attr{}, err
	}
	return uint64(h), nfs.Attr{IsDir: isDir}, nil
}

func (b *exportBackend) Create(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	f, err := b.pv.CreateH(ctx, pvfs.Handle(dir), name)
	if err != nil {
		return 0, nfs.Attr{}, err
	}
	return uint64(f.Handle), nfs.Attr{}, nil
}

func (b *exportBackend) Mkdir(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	h, err := b.pv.MkdirH(ctx, pvfs.Handle(dir), name)
	if err != nil {
		return 0, nfs.Attr{}, err
	}
	return uint64(h), nfs.Attr{IsDir: true}, nil
}

func (b *exportBackend) Remove(ctx *rpc.Ctx, dir uint64, name string) error {
	return b.pv.RemoveH(ctx, pvfs.Handle(dir), name)
}

func (b *exportBackend) Rename(ctx *rpc.Ctx, dir uint64, src, dst string) error {
	return b.pv.RenameH(ctx, pvfs.Handle(dir), src, dst)
}

func (b *exportBackend) ReadDir(ctx *rpc.Ctx, dir uint64) ([]string, error) {
	return b.pv.ReadDirH(ctx, pvfs.Handle(dir))
}

// GetAttr ripples into the parallel file system: the PVFS2 client gathers
// datafile sizes from every storage node (paper §3.4.1's metadata ripple).
func (b *exportBackend) GetAttr(ctx *rpc.Ctx, fh uint64) (nfs.Attr, error) {
	isDir, size, change, err := b.pv.GetAttrH(ctx, pvfs.Handle(fh))
	if err != nil {
		return nfs.Attr{}, err
	}
	return nfs.Attr{IsDir: isDir, Size: size, Change: change}, nil
}

func (b *exportBackend) SetSize(ctx *rpc.Ctx, fh uint64, size int64) error {
	return b.pv.TruncateH(ctx, pvfs.Handle(fh), size)
}

// Read interprets logical file offsets through the PVFS2 client — the
// indirection that costs the two/three-tier architectures their direct
// access.
func (b *exportBackend) Read(ctx *rpc.Ctx, fh uint64, off, n int64, wantReal bool) (payload.Payload, bool, error) {
	b.conduit(ctx, exportReadPerMB, n)
	f, err := b.openCurrent(ctx, fh)
	if err != nil {
		return payload.Payload{}, false, err
	}
	data, got, err := b.pv.Read(ctx, f, off, n, wantReal)
	return data, got < n, err
}

func (b *exportBackend) Write(ctx *rpc.Ctx, fh uint64, off int64, data payload.Payload, stable bool) (int64, error) {
	b.conduit(ctx, exportWritePerMB, data.Len())
	f, err := b.openCurrent(ctx, fh)
	if err != nil {
		return 0, err
	}
	return b.pv.Write(ctx, f, off, data, stable)
}

func (b *exportBackend) Commit(ctx *rpc.Ctx, fh uint64) error {
	f, err := b.openCurrent(ctx, fh)
	if err != nil {
		return err
	}
	return b.pv.Sync(ctx, f)
}
