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
// reply types — each with one XDR method, its wire shape, which an
// xdr.Filter encodes, decodes or sizes, and the one-line MarshalXDR and
// UnmarshalXDR adapters package rpc calls — one row of procTable (this
// file) — which service serves it, its metric label and the request
// constructor the TCP transport decodes through — and its body: an arm of
// MetaServer.Handle or StorageServer.Handle, where the storage daemon's
// three data procedures are the typed methods Read, Write and Flush that a
// co-located Direct-pNFS data server calls directly.  Every other caller
// goes through Client: over the wire, or — for the Direct-pNFS metadata
// server, in the same process as the metadata manager — over an
// rpc.LocalConn that runs MetaServer.Handle on the caller's flow.  Adding a
// procedure is those edits plus its name in docs/METRICS.md;
// TestProcTableComplete and the docs test fail until the table and the docs
// agree with the constants.
//
// # How a metadata request names its entry
//
// As in PVFS2's own protocol, a namespace request starts from a directory
// handle: LOOKUP-H, CREATE-H, MKDIR-H and REMOVE-H carry DirOpArgs{Dir,
// Name}, where Name is a path relative to Dir, and MetaServer.walk resolves
// every component but the last.  The NFS servers send one component from
// the directory filehandle they hold; the native client sends the whole
// path from the root handle, so each of its namespace verbs is still one
// request.
package pvfs

import (
	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/rpc"
	"dpnfs/internal/stripe"
	"dpnfs/internal/xdr"
)

// Procedure number for the metadata service ("pvfs-meta") addressed by a
// file's own handle; the namespace procedures are in handleops.go.  1–5 and
// 7 stay unassigned, so no number a peer knows changes meaning.
const ProcGetAttr uint32 = 6

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

// Two wire shapes cover every single-field message of both services; the
// per-procedure names below are aliases, so each shape is encoded in one
// place and a call site still says which request it is building.

// HandleArgs addresses one object (meta file, directory or datafile).
type HandleArgs struct{ Handle Handle }

// ErrnoRep is the reply of every procedure that returns only a status.
type ErrnoRep struct{ Errno fserr.Errno }

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
	RemoveRep     = ErrnoRep // the reply to ProcRemoveH and ProcRenameH
	IOCreateRep   = ErrnoRep
	IORemoveRep   = ErrnoRep
	IOFlushRep    = ErrnoRep
	IOTruncateRep = ErrnoRep
)

// LookupRep is the reply to ProcLookupH.  A directory has no placement:
// its Dist and Data are zero.
type LookupRep struct {
	Errno  fserr.Errno
	Handle Handle
	IsDir  bool
	Size   int64
	Dist   DistParams
	// Data is the handle addressing the file's stripe objects on the
	// storage daemons.  It equals Handle for files that have never been
	// migrated; after a rebalance it names the shadow objects the data was
	// copied into.
	Data Handle
}

// DistParams carries the file's distribution (aggregation) geometry.
type DistParams struct {
	StripeSize int64
	// Servers lists the stable storage-server IDs in stripe order: device
	// i of the stripe is server Servers[i].
	Servers []uint32
	// Copies stores this many full replicas of the stripe, the server list
	// partitioned per replica exactly like stripe.Replicated: replica r
	// owns servers [r*n/Copies, (r+1)*n/Copies).  0 and 1 both mean
	// unreplicated.  Replication at the distribution level is what lets
	// every architecture's pvfs substrate read-repair corrupt blocks from
	// a surviving copy.
	Copies uint32
}

// sizedMapper is an aggregation driver that reconstructs the logical file
// end implied by one stripe object's size, as round-robin and replicated
// round-robin — every driver a DistParams produces — both do.
type sizedMapper interface {
	stripe.Mapper
	LogicalEnd(dev int, objSize int64) int64
}

// Mapper instantiates the distribution's aggregation driver.  Geometry the
// replication factor cannot divide falls back to plain round-robin — a
// misconfiguration surfaced loudly by the cluster layer, never here on the
// I/O path.
func (p DistParams) Mapper() sizedMapper {
	n := max(len(p.Servers), 1)
	if p.Copies > 1 {
		if m, err := stripe.NewReplicated(p.StripeSize, n, int(p.Copies)); err == nil {
			return m
		}
	}
	return stripe.NewRoundRobin(p.StripeSize, n)
}

// CreateRep is the reply to ProcCreateH.
type CreateRep struct {
	Errno  fserr.Errno
	Handle Handle
	Dist   DistParams
	// Data mirrors LookupRep.Data (equal to Handle at creation).
	Data Handle
}

// MkdirRep is the reply to ProcMkdirH.
type MkdirRep struct {
	Errno  fserr.Errno
	Handle Handle
}

// ReadDirRep is the reply to ProcReadDirH.
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

func (h *Handle) XDR(f xdr.Filter) { f.U64((*uint64)(h)) }

func (a *HandleArgs) XDR(f xdr.Filter) { a.Handle.XDR(f) }
func (r *ErrnoRep) XDR(f xdr.Filter)   { r.Errno.XDR(f) }

// errno is every reply's status word, which the servers' Handle checks for
// a store that crashed under the request (answerCrash).
func (r *ErrnoRep) errno() fserr.Errno     { return r.Errno }
func (r *LookupRep) errno() fserr.Errno    { return r.Errno }
func (r *CreateRep) errno() fserr.Errno    { return r.Errno }
func (r *MkdirRep) errno() fserr.Errno     { return r.Errno }
func (r *ReadDirRep) errno() fserr.Errno   { return r.Errno }
func (r *GetAttrRep) errno() fserr.Errno   { return r.Errno }
func (r *PlacementRep) errno() fserr.Errno { return r.Errno }
func (r *IOReadRep) errno() fserr.Errno    { return r.Errno }
func (r *IOWriteRep) errno() fserr.Errno   { return r.Errno }
func (r *IOGetSizeRep) errno() fserr.Errno { return r.Errno }

func (r *LookupRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	r.Handle.XDR(f)
	f.Flag(&r.IsDir)
	f.I64(&r.Size)
	r.Dist.XDR(f)
	r.Data.XDR(f)
}

// maxServers bounds a distribution's server list.
const maxServers = 4096

func (p *DistParams) XDR(f xdr.Filter) {
	f.I64(&p.StripeSize)
	xdr.Slice(f, &p.Servers, maxServers, xdr.SizeUint32, xdr.Filter.U32)
	f.U32(&p.Copies)
}

func (r *CreateRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	r.Handle.XDR(f)
	r.Dist.XDR(f)
	r.Data.XDR(f)
}

func (r *MkdirRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	r.Handle.XDR(f)
}

func (r *ReadDirRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	xdr.Slice(f, &r.Names, 1<<20, xdr.SizeUint32, xdr.Filter.Text)
}

func (r *GetAttrRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.Flag(&r.IsDir)
	f.I64(&r.Size)
	f.U64(&r.Change)
}

func (a *IOReadArgs) XDR(f xdr.Filter) {
	a.Handle.XDR(f)
	f.I64(&a.Off)
	f.I64(&a.Len)
	f.Flag(&a.WantReal)
}

func (r *IOReadRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.Payload(&r.Data)
	f.Flag(&r.Eof)
	f.U32(&r.Sum)
	f.Flag(&r.HasSum)
}

func (a *IOWriteArgs) XDR(f xdr.Filter) {
	a.Handle.XDR(f)
	f.I64(&a.Off)
	f.Payload(&a.Data)
	f.Flag(&a.Sync)
}

func (r *IOWriteRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.I64(&r.ObjSize)
}

func (r *IOGetSizeRep) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.I64(&r.Size)
	f.U64(&r.Change)
}

func (a *IOTruncateArgs) XDR(f xdr.Filter) {
	a.Handle.XDR(f)
	f.I64(&a.ObjSize)
}

// Every request and reply crosses rpc.Conn on its own.
func (a *HandleArgs) MarshalXDR(e *xdr.Encoder)             { a.XDR(e) }
func (a *HandleArgs) UnmarshalXDR(d *xdr.Decoder) error     { return d.Decode(a) }
func (r *ErrnoRep) MarshalXDR(e *xdr.Encoder)               { r.XDR(e) }
func (r *ErrnoRep) UnmarshalXDR(d *xdr.Decoder) error       { return d.Decode(r) }
func (r *LookupRep) MarshalXDR(e *xdr.Encoder)              { r.XDR(e) }
func (r *LookupRep) UnmarshalXDR(d *xdr.Decoder) error      { return d.Decode(r) }
func (r *CreateRep) MarshalXDR(e *xdr.Encoder)              { r.XDR(e) }
func (r *CreateRep) UnmarshalXDR(d *xdr.Decoder) error      { return d.Decode(r) }
func (r *MkdirRep) MarshalXDR(e *xdr.Encoder)               { r.XDR(e) }
func (r *MkdirRep) UnmarshalXDR(d *xdr.Decoder) error       { return d.Decode(r) }
func (r *ReadDirRep) MarshalXDR(e *xdr.Encoder)             { r.XDR(e) }
func (r *ReadDirRep) UnmarshalXDR(d *xdr.Decoder) error     { return d.Decode(r) }
func (r *GetAttrRep) MarshalXDR(e *xdr.Encoder)             { r.XDR(e) }
func (r *GetAttrRep) UnmarshalXDR(d *xdr.Decoder) error     { return d.Decode(r) }
func (a *IOReadArgs) MarshalXDR(e *xdr.Encoder)             { a.XDR(e) }
func (a *IOReadArgs) UnmarshalXDR(d *xdr.Decoder) error     { return d.Decode(a) }
func (r *IOReadRep) MarshalXDR(e *xdr.Encoder)              { r.XDR(e) }
func (r *IOReadRep) UnmarshalXDR(d *xdr.Decoder) error      { return d.Decode(r) }
func (a *IOWriteArgs) MarshalXDR(e *xdr.Encoder)            { a.XDR(e) }
func (a *IOWriteArgs) UnmarshalXDR(d *xdr.Decoder) error    { return d.Decode(a) }
func (r *IOWriteRep) MarshalXDR(e *xdr.Encoder)             { r.XDR(e) }
func (r *IOWriteRep) UnmarshalXDR(d *xdr.Decoder) error     { return d.Decode(r) }
func (r *IOGetSizeRep) MarshalXDR(e *xdr.Encoder)           { r.XDR(e) }
func (r *IOGetSizeRep) UnmarshalXDR(d *xdr.Decoder) error   { return d.Decode(r) }
func (a *IOTruncateArgs) MarshalXDR(e *xdr.Encoder)         { a.XDR(e) }
func (a *IOTruncateArgs) UnmarshalXDR(d *xdr.Decoder) error { return d.Decode(a) }
func (r *PlacementRep) MarshalXDR(e *xdr.Encoder)           { r.XDR(e) }
func (r *PlacementRep) UnmarshalXDR(d *xdr.Decoder) error   { return d.Decode(r) }
func (a *DirOpArgs) MarshalXDR(e *xdr.Encoder)              { a.XDR(e) }
func (a *DirOpArgs) UnmarshalXDR(d *xdr.Decoder) error      { return d.Decode(a) }
func (a *RenameHArgs) MarshalXDR(e *xdr.Encoder)            { a.XDR(e) }
func (a *RenameHArgs) UnmarshalXDR(d *xdr.Decoder) error    { return d.Decode(a) }

// procTable is where a procedure of either service is declared: one row per
// Proc* constant, indexed by it.  The request registries the TCP transport
// decodes through (MetaRegistry, IORegistry), the "proc" metric label
// (ProcName) and the bound of the request counters' cache all read it.
var procTable = [...]struct {
	service string
	name    string
	req     func() xdr.Unmarshaler
}{
	ProcGetAttr:    {ServiceMeta, "getattr", func() xdr.Unmarshaler { return &GetAttrArgs{} }},
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
