// Package pvfs implements the exported parallel file system: a PVFS2-like
// user-level system with one metadata server, N storage daemons, and
// striping clients (paper §5).
//
// The behavioural properties the paper leans on are modelled explicitly:
//
//   - no client data cache and no write-back cache: every application
//     request becomes at least one protocol request;
//   - substantial per-request overhead (user-level daemon crossings);
//   - a fixed pool of transfer buffers between the "kernel" and the
//     user-level storage daemon, held for the duration of each I/O;
//   - data buffered on storage nodes and flushed to stable storage only on
//     application fsync;
//   - file size reconstructed from per-node datafile sizes (metadata is
//     decentralized, so GetAttr fans out to every storage node);
//   - create/remove touch every storage node to manage datafile objects.
//
// # Where a procedure is declared
//
// A procedure of either service is its Proc* constant, its request and
// reply types with their XDR methods, one row of procTable (this file) —
// which service serves it, its metric label and the request constructor
// the TCP transport decodes through — and its body: an arm of
// MetaServer.Handle or StorageServer.Handle, where the storage daemon's
// three data procedures are the typed methods Read, Write and Flush that a
// co-located Direct-pNFS data server calls directly.  Callers add their own
// wrapper (Client, and cluster's directMDSBackend for the in-process
// metadata manager).  Adding a procedure is those edits plus its name in
// docs/METRICS.md; TestProcTableComplete and the docs test fail until the
// table and the docs agree with the constants.
package pvfs

import (
	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// Procedure numbers for the metadata service ("pvfs-meta").
const (
	ProcLookup uint32 = iota + 1
	ProcCreate
	ProcRemove
	ProcMkdir
	ProcReadDir
	ProcGetAttr
	ProcTruncate
)

// Procedure numbers for the storage I/O service ("pvfs-io").
const (
	ProcIORead uint32 = iota + 100
	ProcIOWrite
	ProcIOCreate
	ProcIORemove
	ProcIOGetSize
	ProcIOFlush
	ProcIOTruncate
)

// ServiceMeta and ServiceIO are the simnet service names.
const (
	ServiceMeta = "pvfs-meta"
	ServiceIO   = "pvfs-io"
)

// Handle identifies a PVFS2 object (meta file or datafile) cluster-wide.
type Handle uint64

// Three wire shapes cover every single-field message of both services; the
// per-procedure names below are aliases, so each shape is encoded in one
// place and a call site still says which request it is building.

// PathArgs addresses a namespace entry by absolute path.
type PathArgs struct{ Path string }

// HandleArgs addresses one object (meta file, directory or datafile).
type HandleArgs struct{ Handle Handle }

// ErrnoRep is the reply of every procedure that returns only a status.
type ErrnoRep struct{ Errno fserr.Errno }

// Requests of the metadata service's path procedures.
type (
	LookupArgs  = PathArgs // resolves a path to a handle and distribution parameters
	CreateArgs  = PathArgs // creates a regular file; the MDS creates its datafile objects before replying
	RemoveArgs  = PathArgs // unlinks a file (removing its datafiles everywhere) or an empty directory
	MkdirArgs   = PathArgs // creates a directory (metadata only)
	ReadDirArgs = PathArgs // lists a directory
)

// Requests addressed by handle: GetAttr makes the MDS gather datafile sizes
// from every storage node to reconstruct the logical size; the IO* requests
// name the datafile object for Handle on the receiving storage node.
type (
	GetAttrArgs    = HandleArgs
	PlacementHArgs = HandleArgs // fetches a file's data placement
	ReadDirHArgs   = HandleArgs // lists a directory
	IOCreateArgs   = HandleArgs
	IORemoveArgs   = HandleArgs
	IOGetSizeArgs  = HandleArgs
	IOFlushArgs    = HandleArgs // forces buffered object data to stable storage
)

// Status-only replies.
type (
	RemoveRep     = ErrnoRep // also the reply to ProcRemoveH and ProcRenameH
	TruncateRep   = ErrnoRep
	IOCreateRep   = ErrnoRep
	IORemoveRep   = ErrnoRep
	IOFlushRep    = ErrnoRep
	IOTruncateRep = ErrnoRep
)

// LookupRep is the reply to ProcLookup.
type LookupRep struct {
	Errno  fserr.Errno
	Handle Handle
	IsDir  bool
	Size   int64
	Dist   DistParams
	// Data is the handle addressing the file's stripe objects on the
	// storage daemons.  It equals Handle for files that have never been
	// migrated; after a rebalance it names the shadow objects the data was
	// copied into.  Zero means "same as Handle" (legacy peers).
	Data Handle
}

// DistParams carries the file's distribution (aggregation) geometry.
type DistParams struct {
	StripeSize int64
	NumServers uint32
	// Servers optionally lists the stable storage-server IDs in stripe
	// order.  Empty means the legacy positional geometry [0..NumServers):
	// the encoding every pre-membership peer produced.  When set,
	// len(Servers) == NumServers.
	Servers []uint32
	// Copies stores this many full replicas of the stripe, the server list
	// partitioned per replica exactly like stripe.Replicated: replica r
	// owns servers [r*n/Copies, (r+1)*n/Copies).  0 and 1 both mean
	// unreplicated.  Replication at the distribution level is what lets
	// every architecture's pvfs substrate read-repair corrupt blocks from
	// a surviving copy.
	Copies uint32
}

// Mapper instantiates the distribution's aggregation driver.  Geometry the
// replication factor cannot divide falls back to plain round-robin — a
// misconfiguration surfaced loudly by the cluster layer, never here on the
// I/O path.
func (p DistParams) Mapper() stripe.Mapper {
	n := max(len(p.ServerIDs()), 1)
	if p.Copies > 1 && n%int(p.Copies) == 0 {
		return stripe.NewReplicated(
			stripe.NewRoundRobin(p.StripeSize, n/int(p.Copies)), int(p.Copies))
	}
	return stripe.NewRoundRobin(p.StripeSize, n)
}

// logicalEnd reconstructs the logical file end implied by a stripe object
// of objSize bytes on dev, for mappers that support size reconstruction
// (round-robin and replicated round-robin — every mapper a DistParams can
// produce).
func logicalEnd(m stripe.Mapper, dev int, objSize int64) int64 {
	type ender interface {
		LogicalEnd(dev int, objSize int64) int64
	}
	e, ok := m.(ender)
	if !ok {
		return 0
	}
	return e.LogicalEnd(dev, objSize)
}

// ServerIDs returns the stripe-order server IDs, materializing the legacy
// positional list when Servers is empty.
func (p DistParams) ServerIDs() []uint32 {
	if len(p.Servers) > 0 {
		return p.Servers
	}
	ids := make([]uint32, p.NumServers)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return ids
}

// CreateRep is the reply to ProcCreate.
type CreateRep struct {
	Errno  fserr.Errno
	Handle Handle
	Dist   DistParams
	// Data mirrors LookupRep.Data (equal to Handle at creation).
	Data Handle
}

// MkdirRep is the reply to ProcMkdir.
type MkdirRep struct {
	Errno  fserr.Errno
	Handle Handle
}

// ReadDirRep is the reply to ProcReadDir.
type ReadDirRep struct {
	Errno fserr.Errno
	Names []string
}

// GetAttrRep is the reply to ProcGetAttr.
type GetAttrRep struct {
	Errno fserr.Errno
	IsDir bool
	Size  int64
	// Change is the file's change attribute, reconstructed as the sum of
	// the datafile change counters plus the metadata object's own counter.
	Change uint64
}

// TruncateArgs sets a file's size, truncating datafiles on every node.
type TruncateArgs struct {
	Handle Handle
	Size   int64
}

// IOReadArgs reads from a datafile (device-space offset).
type IOReadArgs struct {
	Handle Handle
	Off    int64
	Len    int64
	// WantReal asks for materialized bytes (integration tests / demo);
	// benchmarks leave it false and receive synthetic payloads.
	WantReal bool
}

// IOReadRep is the reply to ProcIORead.
type IOReadRep struct {
	Errno fserr.Errno
	Data  payload.Payload
	// Eof reports a short read at end of object.
	Eof bool
	// Sum is an optional CRC32C over the payload bytes (HasSum gates it),
	// computed by daemons with wire checksums enabled so clients can verify
	// the payload end to end (docs/BACKENDS.md "Block checksums").
	Sum    uint32
	HasSum bool
}

// IOWriteArgs writes to a datafile (device-space offset).
type IOWriteArgs struct {
	Handle Handle
	Off    int64
	Data   payload.Payload
	// Sync asks the daemon to flush this object before replying.
	Sync bool
}

// IOWriteRep is the reply to ProcIOWrite.
type IOWriteRep struct {
	Errno   fserr.Errno
	ObjSize int64 // datafile size after the write
}

// IOGetSizeRep is the reply to ProcIOGetSize.
type IOGetSizeRep struct {
	Errno  fserr.Errno
	Size   int64
	Change uint64 // object change counter
}

// IOTruncateArgs truncates the datafile object.
type IOTruncateArgs struct {
	Handle  Handle
	ObjSize int64
}

// ---- XDR ----

func (a *PathArgs) MarshalXDR(e *xdr.Encoder) { e.String(a.Path) }
func (a *PathArgs) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	a.Path, err = d.String()
	return err
}

func (a *HandleArgs) MarshalXDR(e *xdr.Encoder) { e.Uint64(uint64(a.Handle)) }
func (a *HandleArgs) UnmarshalXDR(d *xdr.Decoder) error {
	h, err := d.Uint64()
	a.Handle = Handle(h)
	return err
}

func (r *ErrnoRep) MarshalXDR(e *xdr.Encoder) { e.Uint32(uint32(r.Errno)) }
func (r *ErrnoRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	r.Errno = fserr.Errno(v)
	return err
}

func (r *LookupRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint64(uint64(r.Handle))
	e.Bool(r.IsDir)
	e.Int64(r.Size)
	r.Dist.MarshalXDR(e)
	e.Uint64(uint64(r.Data))
}

func (r *LookupRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	r.Handle = Handle(h)
	if r.IsDir, err = d.Bool(); err != nil {
		return err
	}
	if r.Size, err = d.Int64(); err != nil {
		return err
	}
	if err = r.Dist.UnmarshalXDR(d); err != nil {
		return err
	}
	dh, err := d.Uint64()
	r.Data = Handle(dh)
	return err
}

func (p *DistParams) MarshalXDR(e *xdr.Encoder) {
	e.Int64(p.StripeSize)
	e.Uint32(p.NumServers)
	e.Uint32(uint32(len(p.Servers)))
	for _, id := range p.Servers {
		e.Uint32(id)
	}
	e.Uint32(p.Copies)
}

func (p *DistParams) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if p.StripeSize, err = d.Int64(); err != nil {
		return err
	}
	if p.NumServers, err = d.Uint32(); err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 4096 {
		return xdr.ErrTooLong
	}
	p.Servers = nil
	if n > 0 {
		p.Servers = make([]uint32, n)
		for i := range p.Servers {
			if p.Servers[i], err = d.Uint32(); err != nil {
				return err
			}
		}
	}
	p.Copies, err = d.Uint32()
	return err
}

func (r *CreateRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint64(uint64(r.Handle))
	r.Dist.MarshalXDR(e)
	e.Uint64(uint64(r.Data))
}

func (r *CreateRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	r.Handle = Handle(h)
	if err = r.Dist.UnmarshalXDR(d); err != nil {
		return err
	}
	dh, err := d.Uint64()
	r.Data = Handle(dh)
	return err
}

func (r *MkdirRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint64(uint64(r.Handle))
}

func (r *MkdirRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	h, err := d.Uint64()
	r.Handle = Handle(h)
	return err
}

func (r *ReadDirRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint32(uint32(len(r.Names)))
	for _, n := range r.Names {
		e.String(n)
	}
}

func (r *ReadDirRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	// Every encoded name needs at least its 4-byte length word, so a count
	// beyond Remaining()/4 is a corrupt (or hostile) frame — reject it
	// before allocating, instead of letting an 8-byte frame demand a
	// million-entry slice.
	if n > 1<<20 || int64(n) > int64(d.Remaining()/4) {
		return xdr.ErrTooLong
	}
	r.Names = make([]string, n)
	for i := range r.Names {
		if r.Names[i], err = d.String(); err != nil {
			return err
		}
	}
	return nil
}

func (r *GetAttrRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Bool(r.IsDir)
	e.Int64(r.Size)
	e.Uint64(r.Change)
}

func (r *GetAttrRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	if r.IsDir, err = d.Bool(); err != nil {
		return err
	}
	if r.Size, err = d.Int64(); err != nil {
		return err
	}
	r.Change, err = d.Uint64()
	return err
}

func (a *TruncateArgs) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(uint64(a.Handle))
	e.Int64(a.Size)
}

func (a *TruncateArgs) UnmarshalXDR(d *xdr.Decoder) error {
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	a.Handle = Handle(h)
	a.Size, err = d.Int64()
	return err
}

func (a *IOReadArgs) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(uint64(a.Handle))
	e.Int64(a.Off)
	e.Int64(a.Len)
	e.Bool(a.WantReal)
}

func (a *IOReadArgs) UnmarshalXDR(d *xdr.Decoder) error {
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	a.Handle = Handle(h)
	if a.Off, err = d.Int64(); err != nil {
		return err
	}
	if a.Len, err = d.Int64(); err != nil {
		return err
	}
	a.WantReal, err = d.Bool()
	return err
}

func (r *IOReadRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	r.Data.MarshalXDR(e)
	e.Bool(r.Eof)
	e.Uint32(r.Sum)
	e.Bool(r.HasSum)
}

func (r *IOReadRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	if err = r.Data.UnmarshalXDR(d); err != nil {
		return err
	}
	if r.Eof, err = d.Bool(); err != nil {
		return err
	}
	if r.Sum, err = d.Uint32(); err != nil {
		return err
	}
	r.HasSum, err = d.Bool()
	return err
}

// WireSize lets bulk read replies cross the simulated NIC without
// materializing payload bytes.
func (r *IOReadRep) WireSize() int64 {
	return xdr.SizeUint32 + r.Data.WireSize() + xdr.SizeBool + xdr.SizeUint32 + xdr.SizeBool
}

func (a *IOWriteArgs) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(uint64(a.Handle))
	e.Int64(a.Off)
	a.Data.MarshalXDR(e)
	e.Bool(a.Sync)
}

func (a *IOWriteArgs) UnmarshalXDR(d *xdr.Decoder) error {
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	a.Handle = Handle(h)
	if a.Off, err = d.Int64(); err != nil {
		return err
	}
	if err = a.Data.UnmarshalXDR(d); err != nil {
		return err
	}
	a.Sync, err = d.Bool()
	return err
}

// WireSize lets bulk writes cross the simulated NIC without materializing
// payload bytes.
func (a *IOWriteArgs) WireSize() int64 {
	return xdr.SizeUint64 + xdr.SizeUint64 + a.Data.WireSize() + xdr.SizeBool
}

func (r *IOWriteRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Int64(r.ObjSize)
}

func (r *IOWriteRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	r.ObjSize, err = d.Int64()
	return err
}

func (r *IOGetSizeRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Int64(r.Size)
	e.Uint64(r.Change)
}

func (r *IOGetSizeRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	if r.Size, err = d.Int64(); err != nil {
		return err
	}
	r.Change, err = d.Uint64()
	return err
}

func (a *IOTruncateArgs) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(uint64(a.Handle))
	e.Int64(a.ObjSize)
}

func (a *IOTruncateArgs) UnmarshalXDR(d *xdr.Decoder) error {
	h, err := d.Uint64()
	if err != nil {
		return err
	}
	a.Handle = Handle(h)
	a.ObjSize, err = d.Int64()
	return err
}

// procTable is where a procedure of either service is declared: one row per
// Proc* constant, indexed by it.  The request registries the TCP transport
// decodes through (MetaRegistry, IORegistry), the "proc" metric label
// (ProcName) and the bound of the request counters' cache all read it.
var procTable = [...]struct {
	service string
	name    string
	req     func() xdr.Unmarshaler
}{
	ProcLookup:     {ServiceMeta, "lookup", func() xdr.Unmarshaler { return &LookupArgs{} }},
	ProcCreate:     {ServiceMeta, "create", func() xdr.Unmarshaler { return &CreateArgs{} }},
	ProcRemove:     {ServiceMeta, "remove", func() xdr.Unmarshaler { return &RemoveArgs{} }},
	ProcMkdir:      {ServiceMeta, "mkdir", func() xdr.Unmarshaler { return &MkdirArgs{} }},
	ProcReadDir:    {ServiceMeta, "readdir", func() xdr.Unmarshaler { return &ReadDirArgs{} }},
	ProcGetAttr:    {ServiceMeta, "getattr", func() xdr.Unmarshaler { return &GetAttrArgs{} }},
	ProcTruncate:   {ServiceMeta, "truncate", func() xdr.Unmarshaler { return &TruncateArgs{} }},
	ProcLookupH:    {ServiceMeta, "lookup-h", func() xdr.Unmarshaler { return &DirOpArgs{} }},
	ProcCreateH:    {ServiceMeta, "create-h", func() xdr.Unmarshaler { return &DirOpArgs{} }},
	ProcMkdirH:     {ServiceMeta, "mkdir-h", func() xdr.Unmarshaler { return &DirOpArgs{} }},
	ProcRemoveH:    {ServiceMeta, "remove-h", func() xdr.Unmarshaler { return &DirOpArgs{} }},
	ProcRenameH:    {ServiceMeta, "rename-h", func() xdr.Unmarshaler { return &RenameHArgs{} }},
	ProcReadDirH:   {ServiceMeta, "readdir-h", func() xdr.Unmarshaler { return &ReadDirHArgs{} }},
	ProcPlacementH: {ServiceMeta, "placement-h", func() xdr.Unmarshaler { return &PlacementHArgs{} }},
	ProcIORead:     {ServiceIO, "io-read", func() xdr.Unmarshaler { return &IOReadArgs{} }},
	ProcIOWrite:    {ServiceIO, "io-write", func() xdr.Unmarshaler { return &IOWriteArgs{} }},
	ProcIOCreate:   {ServiceIO, "io-create", func() xdr.Unmarshaler { return &IOCreateArgs{} }},
	ProcIORemove:   {ServiceIO, "io-remove", func() xdr.Unmarshaler { return &IORemoveArgs{} }},
	ProcIOGetSize:  {ServiceIO, "io-getsize", func() xdr.Unmarshaler { return &IOGetSizeArgs{} }},
	ProcIOFlush:    {ServiceIO, "io-flush", func() xdr.Unmarshaler { return &IOFlushArgs{} }},
	ProcIOTruncate: {ServiceIO, "io-truncate", func() xdr.Unmarshaler { return &IOTruncateArgs{} }},
}

// registry collects one service's request constructors from procTable.
func registry(service string) *rpc.Registry {
	reg := rpc.NewRegistry()
	for proc, row := range procTable {
		if row.service == service {
			reg.Register(uint32(proc), row.req)
		}
	}
	return reg
}

// MetaRegistry returns the request registry for the metadata service.
func MetaRegistry() *rpc.Registry { return registry(ServiceMeta) }

// IORegistry returns the request registry for the storage I/O service.
func IORegistry() *rpc.Registry { return registry(ServiceIO) }
