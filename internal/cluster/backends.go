package cluster

import (
	"sync"
	"time"

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

// conduit charges the loopback PVFS2 client cost on the data server node —
// the prototype funnels NFS I/O through the local PVFS2 client and loopback
// device rather than direct VFS access (paper §5).
func (b *directDSBackend) conduit(ctx *rpc.Ctx, bytes int64) {
	ctx.UseCPU(b.node.CPU, pvfs.LoopbackClientPerOp+rpc.PerMB(time.Millisecond, bytes))
}

// Read hands on the block sums the daemon's store verified: offsets here
// address the stripe object, so they are the sums the client's page cache
// can adopt (docs/BACKENDS.md "Block checksums").
func (b *directDSBackend) Read(ctx *rpc.Ctx, fh uint64, off, n int64, wantReal bool) (payload.Payload, bool, store.BlockSums, error) {
	b.conduit(ctx, n)
	rep, sums := b.storage.Read(ctx, &pvfs.IOReadArgs{Handle: pvfs.Handle(fh), Off: off, Len: n, WantReal: wantReal})
	return rep.Data, rep.Eof, sums, rep.Errno.Err()
}

// Write hands the client's block sums to the daemon, whose store checks
// them in the copy that stores the bytes: the client's offsets address the
// stripe object here too.
func (b *directDSBackend) Write(ctx *rpc.Ctx, fh uint64, off int64, data payload.Payload, sums store.BlockSums, stable bool) (int64, error) {
	b.conduit(ctx, data.Len())
	rep := b.storage.Write(ctx, &pvfs.IOWriteArgs{Handle: pvfs.Handle(fh), Off: off, Data: data, Sync: stable}, sums)
	return rep.ObjSize, rep.Errno.Err()
}

func (b *directDSBackend) Commit(ctx *rpc.Ctx, fh uint64) error {
	b.conduit(ctx, 0)
	return b.storage.Flush(ctx, &pvfs.IOFlushArgs{Handle: pvfs.Handle(fh)}).Errno.Err()
}

// directMDSBackend is the Direct-pNFS metadata server: co-located with the
// PVFS2 metadata manager (direct in-process calls — no overlapping
// metadata protocols, paper §4.1), serving layouts through the layout
// translator.  Its namespace verbs are the exports' (pvfsNamespace) over a
// client whose conn to the metadata manager has no wire.  File sizes are
// maintained locally from LAYOUTCOMMITs, so GETATTR never ripples into the
// parallel FS.
type directMDSBackend struct {
	pvfsNamespace
	pvfsData // the fallback I/O path through the MDS
	meta     *pvfs.MetaServer
	agg      string
	aggP     []int64
	cl       *Cluster // the member table
}

// DevList implements nfs.LayoutSource: the data servers, one per storage
// node not drained away, read live from the member table.
func (b *directMDSBackend) DevList(*rpc.Ctx) ([]pnfs.DeviceInfo, error) {
	return b.cl.devices(memberDraining), nil
}

// Lookup adds the size and change the MDS keeps locally from LAYOUTCOMMITs,
// so an OPEN's attributes need no ripple either.
func (b *directMDSBackend) Lookup(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	fh, attr, err := b.pvfsNamespace.Lookup(ctx, dir, name)
	if err != nil {
		return 0, nfs.Attr{}, err
	}
	at, _ := b.meta.Namespace().GetAttr(store.FileID(fh))
	attr.Size, attr.Change = at.Size, at.Change
	return fh, attr, nil
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

// openCurrent resolves the proxied I/O's file in-process, from its current
// placement, so the proxy follows migrations.  The proxy is a fallback
// only: Direct-pNFS clients hold layouts and go to the data servers
// directly.
func (b *directMDSBackend) openCurrent(_ *rpc.Ctx, fh uint64) (*pvfs.File, error) {
	place, err := b.meta.PlacementOf(pvfs.Handle(fh))
	if err != nil {
		return nil, err
	}
	return b.lib.OpenPlaced(pvfs.Handle(fh), place), nil
}

// Write is the exports' write, then publishes the file's new size in the
// MDS namespace, as a LAYOUTCOMMIT would.
func (b *directMDSBackend) Write(ctx *rpc.Ctx, fh uint64, off int64, data payload.Payload, sums store.BlockSums, stable bool) (int64, error) {
	size, err := b.pvfsData.Write(ctx, fh, off, data, sums, stable)
	if err == nil {
		b.meta.Namespace().SetSize(store.FileID(fh), size)
	}
	return size, err
}

// LayoutGet translates the file's placement in the parallel FS into a pNFS
// file-based layout (paper §4.2): exact distribution, direct offsets.  The
// placement names the stable server IDs — the IDs of the co-located data
// servers — and the datafile handle, so the layout stays exact across
// membership changes.  The default aggregation is round-robin over the
// placement's stripe; a configured driver keeps its own params (membership
// changes refuse to run alongside one).
func (b *directMDSBackend) LayoutGet(ctx *rpc.Ctx, fh uint64) (*pnfs.FileLayout, error) {
	place, err := b.meta.PlacementOf(pvfs.Handle(fh))
	if err != nil {
		return nil, err
	}
	native := pnfs.NativeLayout{Aggregation: b.agg, Params: b.aggP, ObjectHandle: uint64(place.Data)}
	if b.agg == "" {
		native.Aggregation, native.Params = pnfs.AggRoundRobin, []int64{place.Dist.StripeSize}
	}
	native.Devices = make([]pnfs.DeviceID, len(place.Dist.Servers))
	for i, id := range place.Dist.Servers {
		native.Devices[i] = pnfs.DeviceID(id)
	}
	return pnfs.Translate(native)
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
//
// The 3-tier data servers are a fixed tier of their own; the 2-tier ones
// ride the storage nodes, so their list follows the member table.
type blindLayouts struct {
	cl     *Cluster
	tier   []pnfs.DeviceInfo // 3-tier's data servers; nil on 2-tier
	stripe int64
	shift  int
}

// DevList implements nfs.LayoutSource: the data servers the layouts stripe
// over.
func (bl *blindLayouts) DevList(*rpc.Ctx) ([]pnfs.DeviceInfo, error) {
	if bl.tier != nil {
		return bl.tier, nil
	}
	return bl.cl.devices(memberDraining), nil
}

// LayoutGet implements nfs.LayoutSource: every file gets the same rotated
// stripe over the data servers, addressed by its own filehandle.
func (bl *blindLayouts) LayoutGet(ctx *rpc.Ctx, fh uint64) (*pnfs.FileLayout, error) {
	devs, _ := bl.DevList(ctx)
	l := &pnfs.FileLayout{
		Aggregation: pnfs.AggRoundRobin,
		Params:      []int64{bl.stripe},
		Direct:      false,
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
	pvfsNamespace
	pvfsData

	// files maps each file this server reached to its open reference
	// (*pvfs.File), filled from the placement its own LOOKUP-H or CREATE-H
	// reply carried, or else by one PLACEMENT-H; the client library keeps
	// each on the file's current placement.
	files sync.Map
}

// file returns the open reference to fh for data access.
func (b *exportBackend) file(ctx *rpc.Ctx, fh uint64) (*pvfs.File, error) {
	h := pvfs.Handle(fh)
	if f, ok := b.files.Load(h); ok {
		return f.(*pvfs.File), nil
	}
	place, err := b.pv.PlacementH(ctx, h)
	if err != nil {
		return nil, err
	}
	return b.keep(h, place), nil
}

// keep makes placement place the server's open reference to file h.
func (b *exportBackend) keep(h pvfs.Handle, place pvfs.Placement) *pvfs.File {
	f := b.pv.OpenPlaced(h, place)
	b.files.Store(h, f)
	return f
}

const (
	exportReadPerMB  = 2 * time.Millisecond
	exportWritePerMB = 30 * time.Millisecond
)

// pvfsData is the data path of every NFS server that reaches file bytes
// through a PVFS2 client library: the exports, and the Direct-pNFS
// metadata server's proxied I/O.  Each server resolves a filehandle to its
// open file its own way (open); node, when set, is charged the kernel
// conduit costs.
type pvfsData struct {
	lib  *pvfs.Client
	node *simnet.Node
	open func(ctx *rpc.Ctx, fh uint64) (*pvfs.File, error)
}

func (d pvfsData) conduit(ctx *rpc.Ctx, perMBCost time.Duration, bytes int64) {
	if d.node != nil {
		ctx.UseCPU(d.node.CPU, rpc.PerMB(perMBCost, bytes))
	}
}

// Read interprets logical file offsets through the PVFS2 client — the
// indirection that costs the two/three-tier architectures their direct
// access.
func (d pvfsData) Read(ctx *rpc.Ctx, fh uint64, off, n int64, wantReal bool) (payload.Payload, bool, store.BlockSums, error) {
	d.conduit(ctx, exportReadPerMB, n)
	f, err := d.open(ctx, fh)
	if err != nil {
		return payload.Payload{}, false, store.BlockSums{}, err
	}
	data, got, err := d.lib.Read(ctx, f, off, n, wantReal)
	return data, got < n, store.BlockSums{}, err
}

// Write checks the client's block sums before the bytes go on to the
// daemons: the PVFS2 wire has no room for them.
func (d pvfsData) Write(ctx *rpc.Ctx, fh uint64, off int64, data payload.Payload, sums store.BlockSums, stable bool) (int64, error) {
	if err := store.CheckSums(off, data.Bytes, sums); err != nil {
		return 0, err
	}
	d.conduit(ctx, exportWritePerMB, data.Len())
	f, err := d.open(ctx, fh)
	if err != nil {
		return 0, err
	}
	size, err := d.lib.Write(ctx, f, off, data, false)
	if err == nil && stable {
		err = d.lib.Sync(ctx, f)
	}
	return size, err
}

// Commit is COMMIT, and the end of a stable WRITE: a FILE_SYNC write costs
// what a write plus COMMIT costs.  The client's Sync flushes every daemon
// of the file, not only those a write reached, so the datafile objects the
// file's create left unsynced survive a crash as well — GETATTR
// reconstructs the size from all of them.
func (d pvfsData) Commit(ctx *rpc.Ctx, fh uint64) error {
	f, err := d.open(ctx, fh)
	if err != nil {
		return err
	}
	return d.lib.Sync(ctx, f)
}

// pvfsNamespace is the nfs.Namespace of every NFS server that reaches the
// PVFS2 namespace through a client library — bar GetAttr, which each server
// answers its own way.  The exports' clients call the metadata manager over
// the wire; the Direct-pNFS MDS's calls it in-process (rpc.LocalConn).
// Either way each verb is one handle procedure through MetaServer.Handle,
// which counts it, charges its CPU and answers a crashed store as one.
type pvfsNamespace struct {
	pv *pvfs.Client
	// keep, when set, learns the placement of every file a LOOKUP-H or
	// CREATE-H reply names (an export's files).
	keep func(pvfs.Handle, pvfs.Placement)
}

func (n pvfsNamespace) Root() uint64 { return uint64(n.pv.RootHandle()) }

func (n pvfsNamespace) Lookup(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	h, place, isDir, err := n.pv.LookupH(ctx, pvfs.Handle(dir), name)
	if err != nil {
		return 0, nfs.Attr{}, err
	}
	if !isDir && n.keep != nil {
		n.keep(h, place)
	}
	return uint64(h), nfs.Attr{IsDir: isDir}, nil
}

func (n pvfsNamespace) Create(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	h, place, err := n.pv.CreateH(ctx, pvfs.Handle(dir), name)
	if err == nil && n.keep != nil {
		n.keep(h, place)
	}
	return uint64(h), nfs.Attr{}, err
}

func (n pvfsNamespace) Mkdir(ctx *rpc.Ctx, dir uint64, name string) (uint64, nfs.Attr, error) {
	h, err := n.pv.MkdirH(ctx, pvfs.Handle(dir), name)
	return uint64(h), nfs.Attr{IsDir: true}, err
}

func (n pvfsNamespace) Remove(ctx *rpc.Ctx, dir uint64, name string) error {
	return n.pv.RemoveH(ctx, pvfs.Handle(dir), name)
}

func (n pvfsNamespace) Rename(ctx *rpc.Ctx, dir uint64, src, dst string) error {
	return n.pv.RenameH(ctx, pvfs.Handle(dir), src, dst)
}

func (n pvfsNamespace) ReadDir(ctx *rpc.Ctx, dir uint64) ([]string, error) {
	return n.pv.ReadDirH(ctx, pvfs.Handle(dir))
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
