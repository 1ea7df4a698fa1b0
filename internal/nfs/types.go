// Package nfs implements the NFSv4.1 protocol engine used on both sides of
// every architecture in this repository: the metadata server, the data
// servers, the plain NFSv4 server, and the client (with write-back page
// cache, request gathering to wsize, readahead, and pNFS layout I/O).
//
// Operations are carried in COMPOUND procedures as in RFC 5661, using the
// real NFSv4.1 operation numbers.  A compound opens with session fields
// (EXCHANGE_ID / CREATE_SESSION establish them; per-slot sequence numbers
// give replay semantics), and the server threads a current-filehandle
// through the op list.
//
// # Where an operation is declared
//
// An operation is its OpNum* constant, its Op and Result types (this file),
// one row of opTable (compound.go) and one arm of Server.exec (server.go).
// Each type has a Num() method and one XDR method, its wire shape: the
// fields in wire order, passed to an xdr.Filter that encodes, decodes or
// sizes them, so nothing else is written per type.  The row carries
// everything else that depends on which operations exist: the metric label,
// whether a retransmission may re-execute it, which optional backend role it
// needs and the constructors the COMPOUND codec decodes through.  Adding an
// operation is those four edits plus its name in docs/METRICS.md;
// TestOpTableComplete and the docs test fail until all are made.
package nfs

import (
	"fmt"

	"dpnfs/internal/fserr"
	"dpnfs/internal/payload"
	"dpnfs/internal/pnfs"
	"dpnfs/internal/store"
	"dpnfs/internal/xdr"
)

// ProcCompound is the single RPC procedure: everything is a COMPOUND.
const ProcCompound uint32 = 1

// Service is the simnet service name for NFSv4.1 endpoints.
const Service = "nfs"

// NFSv4.1 operation numbers (RFC 5661 §16-18 subset).
const (
	OpNumClose         uint32 = 4
	OpNumCommit        uint32 = 5
	OpNumCreate        uint32 = 6
	OpNumGetAttr       uint32 = 9
	OpNumLookup        uint32 = 15
	OpNumOpen          uint32 = 18
	OpNumPutFH         uint32 = 22
	OpNumPutRootFH     uint32 = 24
	OpNumRead          uint32 = 25
	OpNumReadDir       uint32 = 26
	OpNumRemove        uint32 = 28
	OpNumRename        uint32 = 29
	OpNumWrite         uint32 = 38
	OpNumExchangeID    uint32 = 42
	OpNumCreateSession uint32 = 43
	OpNumLayoutCommit  uint32 = 49
	OpNumLayoutGet     uint32 = 50
	OpNumLayoutReturn  uint32 = 51
	OpNumGetDevList    uint32 = 56
)

// Attr is the attribute subset the protocols exchange.
type Attr struct {
	IsDir  bool
	Size   int64
	Change uint64
}

func (a *Attr) XDR(f xdr.Filter) {
	f.Flag(&a.IsDir)
	f.I64(&a.Size)
	f.U64(&a.Change)
}

// Op is one operation inside a COMPOUND request.
type Op interface {
	Num() uint32
	xdr.Codec
}

// Result is one operation result inside a COMPOUND reply.
type Result interface {
	Num() uint32
	Status() fserr.Errno
	xdr.Codec
}

// ---- Operations ----

// noArgs is embedded by operations that carry no arguments.
type noArgs struct{}

func (noArgs) XDR(xdr.Filter) {}

// OpPutRootFH sets the current filehandle to the export root.
type OpPutRootFH struct{ noArgs }

// OpPutFH sets the current filehandle.
type OpPutFH struct{ FH uint64 }

// OpLookup resolves Name in the current (directory) filehandle.
type OpLookup struct{ Name string }

// OpOpen opens Name in the current directory, optionally creating it.  The
// current filehandle becomes the opened file.
type OpOpen struct {
	Name   string
	Create bool
}

// OpClose releases the open state.
type OpClose struct{ StateID uint64 }

// OpGetAttr fetches attributes of the current filehandle.
type OpGetAttr struct{ noArgs }

// OpRead reads from the current filehandle.
type OpRead struct {
	StateID  uint64
	Off      int64
	Len      int64
	WantReal bool
}

// OpWrite writes to the current filehandle.  Stable requests synchronous
// commitment to stable storage (FILE_SYNC4); otherwise UNSTABLE4.  Blocks
// are the client page cache's sums of the payload's whole blocks, which the
// server's store checks the bytes against (docs/BACKENDS.md "Block
// checksums").  Both ride in one form word after the payload: bit 0 is
// Stable, bit 1 says Blocks follow.  Forms 0 and 1 are the historical Stable
// boolean, byte for byte.
type OpWrite struct {
	StateID uint64
	Off     int64
	Data    payload.Payload
	Stable  bool
	// Blocks is sent when Blocks.Sums is non-nil.
	Blocks store.BlockSums
}

// The OpWrite form bits.
const (
	writeStable uint32 = 1 << iota
	writeBlocks
)

func (o *OpWrite) form() uint32 {
	var form uint32
	if o.Stable {
		form |= writeStable
	}
	if o.Blocks.Sums != nil {
		form |= writeBlocks
	}
	return form
}

// OpCommit forces previously unstable writes to stable storage.
type OpCommit struct{ Off, Len int64 }

// OpCreate makes a directory (the only CREATE type this subset needs).
type OpCreate struct{ Name string }

// OpRemove unlinks Name in the current directory.
type OpRemove struct{ Name string }

// OpRename renames Src to Dst within the current directory.
type OpRename struct{ Src, Dst string }

// OpReadDir lists the current directory.
type OpReadDir struct{ noArgs }

// OpGetDevList retrieves the data-server device list (pNFS, issued at
// mount).
type OpGetDevList struct{ noArgs }

// OpLayoutGet retrieves the file layout for the current filehandle.
type OpLayoutGet struct{ noArgs }

// OpLayoutCommit publishes post-I/O metadata (possibly extended size).
type OpLayoutCommit struct{ NewSize int64 }

// OpLayoutReturn returns the layout for the current filehandle.
type OpLayoutReturn struct{ noArgs }

// OpExchangeID introduces a client to the server.
type OpExchangeID struct{ ClientName string }

// OpCreateSession creates a session with a slot table.
type OpCreateSession struct {
	ClientID uint64
	Slots    uint32
}

// Num implementations.
func (*OpPutRootFH) Num() uint32     { return OpNumPutRootFH }
func (*OpPutFH) Num() uint32         { return OpNumPutFH }
func (*OpLookup) Num() uint32        { return OpNumLookup }
func (*OpOpen) Num() uint32          { return OpNumOpen }
func (*OpClose) Num() uint32         { return OpNumClose }
func (*OpGetAttr) Num() uint32       { return OpNumGetAttr }
func (*OpRead) Num() uint32          { return OpNumRead }
func (*OpWrite) Num() uint32         { return OpNumWrite }
func (*OpCommit) Num() uint32        { return OpNumCommit }
func (*OpCreate) Num() uint32        { return OpNumCreate }
func (*OpRemove) Num() uint32        { return OpNumRemove }
func (*OpRename) Num() uint32        { return OpNumRename }
func (*OpReadDir) Num() uint32       { return OpNumReadDir }
func (*OpGetDevList) Num() uint32    { return OpNumGetDevList }
func (*OpLayoutGet) Num() uint32     { return OpNumLayoutGet }
func (*OpLayoutCommit) Num() uint32  { return OpNumLayoutCommit }
func (*OpLayoutReturn) Num() uint32  { return OpNumLayoutReturn }
func (*OpExchangeID) Num() uint32    { return OpNumExchangeID }
func (*OpCreateSession) Num() uint32 { return OpNumCreateSession }

// Wire shapes (xdr.Codec).
func (o *OpPutFH) XDR(f xdr.Filter)        { f.U64(&o.FH) }
func (o *OpLookup) XDR(f xdr.Filter)       { f.Text(&o.Name) }
func (o *OpClose) XDR(f xdr.Filter)        { f.U64(&o.StateID) }
func (o *OpCreate) XDR(f xdr.Filter)       { f.Text(&o.Name) }
func (o *OpRemove) XDR(f xdr.Filter)       { f.Text(&o.Name) }
func (o *OpLayoutCommit) XDR(f xdr.Filter) { f.I64(&o.NewSize) }
func (o *OpExchangeID) XDR(f xdr.Filter)   { f.Text(&o.ClientName) }

func (o *OpOpen) XDR(f xdr.Filter) {
	f.Text(&o.Name)
	f.Flag(&o.Create)
}

func (o *OpRead) XDR(f xdr.Filter) {
	f.U64(&o.StateID)
	f.I64(&o.Off)
	f.I64(&o.Len)
	f.Flag(&o.WantReal)
}

func (o *OpWrite) XDR(f xdr.Filter) {
	f.U64(&o.StateID)
	f.I64(&o.Off)
	f.Payload(&o.Data)
	form := f.Union(o.form())
	if form&^(writeStable|writeBlocks) != 0 {
		f.Fail(fmt.Errorf("nfs: WRITE has form %d", form))
		return
	}
	if f.Decoding() {
		o.Stable = form&writeStable != 0
	}
	if form&writeBlocks != 0 {
		f.U64(&o.Blocks.Salt0)
		xdr.Slice(f, &o.Blocks.Sums, maxBlockSums, xdr.SizeUint32, xdr.Filter.U32)
	}
}

func (o *OpCommit) XDR(f xdr.Filter) {
	f.I64(&o.Off)
	f.I64(&o.Len)
}

func (o *OpRename) XDR(f xdr.Filter) {
	f.Text(&o.Src)
	f.Text(&o.Dst)
}

func (o *OpCreateSession) XDR(f xdr.Filter) {
	f.U64(&o.ClientID)
	f.U32(&o.Slots)
}

// ---- Results ----

// errnoOnly is embedded by results that carry only a status.
type errnoOnly struct{ Errno fserr.Errno }

func (r *errnoOnly) Status() fserr.Errno { return r.Errno }
func (r *errnoOnly) XDR(f xdr.Filter)    { r.Errno.XDR(f) }

// fhAttr is embedded by results that return a filehandle plus attributes.
type fhAttr struct {
	Errno fserr.Errno
	FH    uint64
	Attr  Attr
}

func (r *fhAttr) Status() fserr.Errno { return r.Errno }
func (r *fhAttr) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.U64(&r.FH)
	r.Attr.XDR(f)
}

// ResPutRootFH is the PUTROOTFH result.
type ResPutRootFH struct{ errnoOnly }

// ResPutFH is the PUTFH result.
type ResPutFH struct{ errnoOnly }

// ResLookup is the LOOKUP result.
type ResLookup struct{ fhAttr }

// ResOpen is the OPEN result.
type ResOpen struct {
	fhAttr
	StateID uint64
}

func (r *ResOpen) XDR(f xdr.Filter) {
	r.fhAttr.XDR(f)
	f.U64(&r.StateID)
}

// ResClose is the CLOSE result.
type ResClose struct{ errnoOnly }

// ResGetAttr is the GETATTR result.
type ResGetAttr struct {
	Errno fserr.Errno
	Attr  Attr
}

func (r *ResGetAttr) Status() fserr.Errno { return r.Errno }
func (r *ResGetAttr) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	r.Attr.XDR(f)
}

// ResRead is the READ result.  Its payload carries one of three checksum
// forms (docs/BACKENDS.md "Block checksums"), told apart on the wire by the
// word after Sum: 0 none, 1 a CRC32C over the whole payload (HasSum; servers
// with wire checksums on), 2 the block sums the server's store verified
// while reading (Blocks), which the client's page cache adopts instead of
// sealing the blocks itself.  Forms 0 and 1 are the historical HasSum
// boolean, byte for byte.
type ResRead struct {
	Errno  fserr.Errno
	Eof    bool
	Data   payload.Payload
	Sum    uint32
	HasSum bool
	// Blocks is sent when HasSum is not set and Blocks.Sums is non-nil.
	Blocks store.BlockSums
}

// The ResRead checksum forms.
const (
	sumNone uint32 = iota
	sumPayload
	sumBlocks
)

// maxBlockSums bounds a READ result's block-sum count: one per 512 bytes of
// the largest opaque, far above any store's block count.
const maxBlockSums = xdr.MaxOpaque / 512

func (r *ResRead) sumForm() uint32 {
	switch {
	case r.HasSum:
		return sumPayload
	case r.Blocks.Sums != nil:
		return sumBlocks
	}
	return sumNone
}

func (r *ResRead) Status() fserr.Errno { return r.Errno }
func (r *ResRead) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.Flag(&r.Eof)
	f.Payload(&r.Data)
	f.U32(&r.Sum)
	switch form := f.Union(r.sumForm()); form {
	case sumNone:
	case sumPayload:
		if f.Decoding() {
			r.HasSum = true
		}
	case sumBlocks:
		f.U64(&r.Blocks.Salt0)
		xdr.Slice(f, &r.Blocks.Sums, maxBlockSums, xdr.SizeUint32, xdr.Filter.U32)
	default:
		f.Fail(fmt.Errorf("nfs: READ result has checksum form %d", form))
	}
}

// ResWrite is the WRITE result.
type ResWrite struct {
	Errno   fserr.Errno
	Count   int64
	NewSize int64
}

func (r *ResWrite) Status() fserr.Errno { return r.Errno }
func (r *ResWrite) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.I64(&r.Count)
	f.I64(&r.NewSize)
}

// ResCommit is the COMMIT result.
type ResCommit struct{ errnoOnly }

// ResCreate is the CREATE result.
type ResCreate struct{ fhAttr }

// ResRemove is the REMOVE result.
type ResRemove struct{ errnoOnly }

// ResRename is the RENAME result.
type ResRename struct{ errnoOnly }

// ResReadDir is the READDIR result.
type ResReadDir struct {
	Errno fserr.Errno
	Names []string
}

func (r *ResReadDir) Status() fserr.Errno { return r.Errno }
func (r *ResReadDir) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	xdr.Slice(f, &r.Names, 1<<20, xdr.SizeUint32, xdr.Filter.Text)
}

// ResGetDevList is the GETDEVICELIST result.
type ResGetDevList struct {
	Errno   fserr.Errno
	Devices []pnfs.DeviceInfo
}

func (r *ResGetDevList) Status() fserr.Errno { return r.Errno }
func (r *ResGetDevList) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	xdr.Slice(f, &r.Devices, pnfs.MaxDevices, 2*xdr.SizeUint32, // an ID and an address length
		func(f xdr.Filter, d *pnfs.DeviceInfo) { d.XDR(f) })
}

// ResLayoutGet is the LAYOUTGET result.
type ResLayoutGet struct {
	Errno  fserr.Errno
	Layout pnfs.FileLayout
}

func (r *ResLayoutGet) Status() fserr.Errno { return r.Errno }
func (r *ResLayoutGet) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	r.Layout.XDR(f)
}

// ResLayoutCommit is the LAYOUTCOMMIT result.
type ResLayoutCommit struct{ errnoOnly }

// ResLayoutReturn is the LAYOUTRETURN result.
type ResLayoutReturn struct{ errnoOnly }

// ResExchangeID is the EXCHANGE_ID result.
type ResExchangeID struct {
	Errno    fserr.Errno
	ClientID uint64
}

func (r *ResExchangeID) Status() fserr.Errno { return r.Errno }
func (r *ResExchangeID) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.U64(&r.ClientID)
}

// ResCreateSession is the CREATE_SESSION result.
type ResCreateSession struct {
	Errno   fserr.Errno
	Session uint64
	Slots   uint32
}

func (r *ResCreateSession) Status() fserr.Errno { return r.Errno }
func (r *ResCreateSession) XDR(f xdr.Filter) {
	r.Errno.XDR(f)
	f.U64(&r.Session)
	f.U32(&r.Slots)
}

// Num implementations for results.
func (*ResPutRootFH) Num() uint32     { return OpNumPutRootFH }
func (*ResPutFH) Num() uint32         { return OpNumPutFH }
func (*ResLookup) Num() uint32        { return OpNumLookup }
func (*ResOpen) Num() uint32          { return OpNumOpen }
func (*ResClose) Num() uint32         { return OpNumClose }
func (*ResGetAttr) Num() uint32       { return OpNumGetAttr }
func (*ResRead) Num() uint32          { return OpNumRead }
func (*ResWrite) Num() uint32         { return OpNumWrite }
func (*ResCommit) Num() uint32        { return OpNumCommit }
func (*ResCreate) Num() uint32        { return OpNumCreate }
func (*ResRemove) Num() uint32        { return OpNumRemove }
func (*ResRename) Num() uint32        { return OpNumRename }
func (*ResReadDir) Num() uint32       { return OpNumReadDir }
func (*ResGetDevList) Num() uint32    { return OpNumGetDevList }
func (*ResLayoutGet) Num() uint32     { return OpNumLayoutGet }
func (*ResLayoutCommit) Num() uint32  { return OpNumLayoutCommit }
func (*ResLayoutReturn) Num() uint32  { return OpNumLayoutReturn }
func (*ResExchangeID) Num() uint32    { return OpNumExchangeID }
func (*ResCreateSession) Num() uint32 { return OpNumCreateSession }
