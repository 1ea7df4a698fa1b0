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
// An operation is its OpNum* constant, its Op and Result types with their
// Num() and XDR methods (this file), one row of opTable (compound.go) and
// one arm of Server.exec (server.go).  The row carries everything else
// that depends on which operations exist: the metric label, whether a
// retransmission may re-execute it, which optional backend role it needs
// and the constructors the COMPOUND codec decodes through.  Adding an
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

func (a *Attr) MarshalXDR(e *xdr.Encoder) {
	e.Bool(a.IsDir)
	e.Int64(a.Size)
	e.Uint64(a.Change)
}

func (a *Attr) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if a.IsDir, err = d.Bool(); err != nil {
		return err
	}
	if a.Size, err = d.Int64(); err != nil {
		return err
	}
	a.Change, err = d.Uint64()
	return err
}

// Op is one operation inside a COMPOUND request.
type Op interface {
	Num() uint32
	xdr.Marshaler
	xdr.Unmarshaler
}

// Result is one operation result inside a COMPOUND reply.
type Result interface {
	Num() uint32
	Status() fserr.Errno
	xdr.Marshaler
	xdr.Unmarshaler
}

// ---- Operations ----

// OpPutRootFH sets the current filehandle to the export root.
type OpPutRootFH struct{}

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
type OpGetAttr struct{}

// OpRead reads from the current filehandle.
type OpRead struct {
	StateID  uint64
	Off      int64
	Len      int64
	WantReal bool
}

// OpWrite writes to the current filehandle.  Stable requests synchronous
// commitment to stable storage (FILE_SYNC4); otherwise UNSTABLE4.
type OpWrite struct {
	StateID uint64
	Off     int64
	Data    payload.Payload
	Stable  bool
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
type OpReadDir struct{}

// OpGetDevList retrieves the data-server device list (pNFS, issued at
// mount).
type OpGetDevList struct{}

// OpLayoutGet retrieves the file layout for the current filehandle.
type OpLayoutGet struct{}

// OpLayoutCommit publishes post-I/O metadata (possibly extended size).
type OpLayoutCommit struct{ NewSize int64 }

// OpLayoutReturn returns the layout for the current filehandle.
type OpLayoutReturn struct{}

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

// XDR implementations.
func (*OpPutRootFH) MarshalXDR(*xdr.Encoder)         {}
func (*OpPutRootFH) UnmarshalXDR(*xdr.Decoder) error { return nil }

func (o *OpPutFH) MarshalXDR(e *xdr.Encoder) { e.Uint64(o.FH) }
func (o *OpPutFH) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	o.FH, err = d.Uint64()
	return err
}

func (o *OpLookup) MarshalXDR(e *xdr.Encoder) { e.String(o.Name) }
func (o *OpLookup) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	o.Name, err = d.String()
	return err
}

func (o *OpOpen) MarshalXDR(e *xdr.Encoder) {
	e.String(o.Name)
	e.Bool(o.Create)
}
func (o *OpOpen) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if o.Name, err = d.String(); err != nil {
		return err
	}
	o.Create, err = d.Bool()
	return err
}

func (o *OpClose) MarshalXDR(e *xdr.Encoder) { e.Uint64(o.StateID) }
func (o *OpClose) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	o.StateID, err = d.Uint64()
	return err
}

func (*OpGetAttr) MarshalXDR(*xdr.Encoder)         {}
func (*OpGetAttr) UnmarshalXDR(*xdr.Decoder) error { return nil }

func (o *OpRead) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(o.StateID)
	e.Int64(o.Off)
	e.Int64(o.Len)
	e.Bool(o.WantReal)
}
func (o *OpRead) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if o.StateID, err = d.Uint64(); err != nil {
		return err
	}
	if o.Off, err = d.Int64(); err != nil {
		return err
	}
	if o.Len, err = d.Int64(); err != nil {
		return err
	}
	o.WantReal, err = d.Bool()
	return err
}

func (o *OpWrite) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(o.StateID)
	e.Int64(o.Off)
	o.Data.MarshalXDR(e)
	e.Bool(o.Stable)
}
func (o *OpWrite) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if o.StateID, err = d.Uint64(); err != nil {
		return err
	}
	if o.Off, err = d.Int64(); err != nil {
		return err
	}
	if err = o.Data.UnmarshalXDR(d); err != nil {
		return err
	}
	o.Stable, err = d.Bool()
	return err
}

// WireSize avoids materializing bulk write payloads under simulation.
func (o *OpWrite) WireSize() int64 {
	return xdr.SizeUint64 + xdr.SizeUint64 + o.Data.WireSize() + xdr.SizeBool
}

func (o *OpCommit) MarshalXDR(e *xdr.Encoder) {
	e.Int64(o.Off)
	e.Int64(o.Len)
}
func (o *OpCommit) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if o.Off, err = d.Int64(); err != nil {
		return err
	}
	o.Len, err = d.Int64()
	return err
}

func (o *OpCreate) MarshalXDR(e *xdr.Encoder) { e.String(o.Name) }
func (o *OpCreate) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	o.Name, err = d.String()
	return err
}

func (o *OpRemove) MarshalXDR(e *xdr.Encoder) { e.String(o.Name) }
func (o *OpRemove) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	o.Name, err = d.String()
	return err
}

func (o *OpRename) MarshalXDR(e *xdr.Encoder) {
	e.String(o.Src)
	e.String(o.Dst)
}
func (o *OpRename) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if o.Src, err = d.String(); err != nil {
		return err
	}
	o.Dst, err = d.String()
	return err
}

func (*OpReadDir) MarshalXDR(*xdr.Encoder)         {}
func (*OpReadDir) UnmarshalXDR(*xdr.Decoder) error { return nil }

func (*OpGetDevList) MarshalXDR(*xdr.Encoder)         {}
func (*OpGetDevList) UnmarshalXDR(*xdr.Decoder) error { return nil }

func (*OpLayoutGet) MarshalXDR(*xdr.Encoder)         {}
func (*OpLayoutGet) UnmarshalXDR(*xdr.Decoder) error { return nil }

func (o *OpLayoutCommit) MarshalXDR(e *xdr.Encoder) { e.Int64(o.NewSize) }
func (o *OpLayoutCommit) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	o.NewSize, err = d.Int64()
	return err
}

func (*OpLayoutReturn) MarshalXDR(*xdr.Encoder)         {}
func (*OpLayoutReturn) UnmarshalXDR(*xdr.Decoder) error { return nil }

func (o *OpExchangeID) MarshalXDR(e *xdr.Encoder) { e.String(o.ClientName) }
func (o *OpExchangeID) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	o.ClientName, err = d.String()
	return err
}

func (o *OpCreateSession) MarshalXDR(e *xdr.Encoder) {
	e.Uint64(o.ClientID)
	e.Uint32(o.Slots)
}
func (o *OpCreateSession) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if o.ClientID, err = d.Uint64(); err != nil {
		return err
	}
	o.Slots, err = d.Uint32()
	return err
}

// ---- Results ----

// errnoOnly is embedded by results that carry only a status.
type errnoOnly struct{ Errno fserr.Errno }

func (r *errnoOnly) Status() fserr.Errno       { return r.Errno }
func (r *errnoOnly) MarshalXDR(e *xdr.Encoder) { e.Uint32(uint32(r.Errno)) }
func (r *errnoOnly) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	r.Errno = fserr.Errno(v)
	return err
}

// fhAttr is embedded by results that return a filehandle plus attributes.
type fhAttr struct {
	Errno fserr.Errno
	FH    uint64
	Attr  Attr
}

func (r *fhAttr) Status() fserr.Errno { return r.Errno }
func (r *fhAttr) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint64(r.FH)
	r.Attr.MarshalXDR(e)
}
func (r *fhAttr) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	if r.FH, err = d.Uint64(); err != nil {
		return err
	}
	return r.Attr.UnmarshalXDR(d)
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

func (r *ResOpen) MarshalXDR(e *xdr.Encoder) {
	r.fhAttr.MarshalXDR(e)
	e.Uint64(r.StateID)
}
func (r *ResOpen) UnmarshalXDR(d *xdr.Decoder) error {
	if err := r.fhAttr.UnmarshalXDR(d); err != nil {
		return err
	}
	var err error
	r.StateID, err = d.Uint64()
	return err
}

// ResClose is the CLOSE result.
type ResClose struct{ errnoOnly }

// ResGetAttr is the GETATTR result.
type ResGetAttr struct {
	Errno fserr.Errno
	Attr  Attr
}

func (r *ResGetAttr) Status() fserr.Errno { return r.Errno }
func (r *ResGetAttr) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	r.Attr.MarshalXDR(e)
}
func (r *ResGetAttr) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	return r.Attr.UnmarshalXDR(d)
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
func (r *ResRead) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Bool(r.Eof)
	r.Data.MarshalXDR(e)
	e.Uint32(r.Sum)
	form := r.sumForm()
	e.Uint32(form)
	if form == sumBlocks {
		e.Uint64(r.Blocks.Salt0)
		e.Uint32(uint32(len(r.Blocks.Sums)))
		for _, s := range r.Blocks.Sums {
			e.Uint32(s)
		}
	}
}
func (r *ResRead) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	if r.Eof, err = d.Bool(); err != nil {
		return err
	}
	if err = r.Data.UnmarshalXDR(d); err != nil {
		return err
	}
	if r.Sum, err = d.Uint32(); err != nil {
		return err
	}
	form, err := d.Uint32()
	switch {
	case err != nil:
		return err
	case form == sumPayload:
		r.HasSum = true
	case form == sumBlocks:
		if r.Blocks.Salt0, err = d.Uint64(); err != nil {
			return err
		}
		n, err := d.Uint32()
		if err != nil {
			return err
		}
		if int64(n)*xdr.SizeUint32 > int64(d.Remaining()) {
			return xdr.ErrShortBuffer
		}
		r.Blocks.Sums = make([]uint32, n)
		for i := range r.Blocks.Sums {
			r.Blocks.Sums[i], _ = d.Uint32() // cannot run short: n was checked against Remaining
		}
	case form != sumNone:
		return fmt.Errorf("nfs: READ result has checksum form %d", form)
	}
	return nil
}

// WireSize avoids materializing bulk read payloads under simulation.
func (r *ResRead) WireSize() int64 {
	n := xdr.SizeUint32 + xdr.SizeBool + r.Data.WireSize() + xdr.SizeUint32 + xdr.SizeUint32
	if r.sumForm() == sumBlocks {
		n += xdr.SizeUint64 + xdr.SizeUint32 + int64(len(r.Blocks.Sums))*xdr.SizeUint32
	}
	return n
}

// ResWrite is the WRITE result.
type ResWrite struct {
	Errno   fserr.Errno
	Count   int64
	NewSize int64
}

func (r *ResWrite) Status() fserr.Errno { return r.Errno }
func (r *ResWrite) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Int64(r.Count)
	e.Int64(r.NewSize)
}
func (r *ResWrite) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	if r.Count, err = d.Int64(); err != nil {
		return err
	}
	r.NewSize, err = d.Int64()
	return err
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
func (r *ResReadDir) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint32(uint32(len(r.Names)))
	for _, n := range r.Names {
		e.String(n)
	}
}
func (r *ResReadDir) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	// Each name needs at least its 4-byte length word; reject corrupt
	// counts before allocating.
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

// ResGetDevList is the GETDEVICELIST result.
type ResGetDevList struct {
	Errno   fserr.Errno
	Devices []pnfs.DeviceInfo
}

func (r *ResGetDevList) Status() fserr.Errno { return r.Errno }
func (r *ResGetDevList) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint32(uint32(len(r.Devices)))
	for _, dev := range r.Devices {
		e.Uint32(uint32(dev.ID))
		e.String(dev.Addr)
	}
}
func (r *ResGetDevList) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 4096 {
		return xdr.ErrTooLong
	}
	r.Devices = make([]pnfs.DeviceInfo, n)
	for i := range r.Devices {
		id, err := d.Uint32()
		if err != nil {
			return err
		}
		r.Devices[i].ID = pnfs.DeviceID(id)
		if r.Devices[i].Addr, err = d.String(); err != nil {
			return err
		}
	}
	return nil
}

// ResLayoutGet is the LAYOUTGET result.
type ResLayoutGet struct {
	Errno  fserr.Errno
	Layout pnfs.FileLayout
}

func (r *ResLayoutGet) Status() fserr.Errno { return r.Errno }
func (r *ResLayoutGet) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	r.Layout.MarshalXDR(e)
}
func (r *ResLayoutGet) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	return r.Layout.UnmarshalXDR(d)
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
func (r *ResExchangeID) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint64(r.ClientID)
}
func (r *ResExchangeID) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	r.ClientID, err = d.Uint64()
	return err
}

// ResCreateSession is the CREATE_SESSION result.
type ResCreateSession struct {
	Errno   fserr.Errno
	Session uint64
	Slots   uint32
}

func (r *ResCreateSession) Status() fserr.Errno { return r.Errno }
func (r *ResCreateSession) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(r.Errno))
	e.Uint64(r.Session)
	e.Uint32(r.Slots)
}
func (r *ResCreateSession) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	r.Errno = fserr.Errno(v)
	if r.Session, err = d.Uint64(); err != nil {
		return err
	}
	r.Slots, err = d.Uint32()
	return err
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
