package nfs

import (
	"fmt"

	"dpnfs/internal/fserr"
	"dpnfs/internal/rpc"
	"dpnfs/internal/xdr"
)

// CompoundArgs is a COMPOUND request: session header plus an op list.  A
// zero Session means an unsessioned compound (only EXCHANGE_ID /
// CREATE_SESSION compounds are accepted without a session).
type CompoundArgs struct {
	Tag     string
	Session uint64
	Slot    uint32
	Seq     uint32
	Ops     []Op
}

// CompoundRep is a COMPOUND reply: overall status plus results for every
// executed op (execution stops at the first failure, whose result is last).
type CompoundRep struct {
	Status  fserr.Errno
	Results []Result
}

// role names the optional backend role an operation needs (server.go).
type role uint8

const (
	roleNone      role = iota
	roleNamespace      // Namespace
	roleLayouts        // LayoutSource
)

// opTable is where an operation is declared: one row per OpNum* constant,
// indexed by it.  Everything that depends on which operations exist reads
// it — the COMPOUND codec (op, res), the metric label (name), the replay
// cache (idempotent: a pure read the server re-executes on a retransmission
// instead of caching its reply) and the server's role check (needs, and the
// status it answers with itself when the backend lacks the role).  res
// builds the operation's result carrying a status; res(fserr.OK) is the
// empty result the decoder fills.
var opTable = [...]struct {
	name       string
	idempotent bool
	needs      role
	absent     fserr.Errno
	op         func() Op
	res        func(fserr.Errno) Result
}{
	OpNumClose: {name: "CLOSE",
		op: func() Op { return &OpClose{} }, res: func(e fserr.Errno) Result { return &ResClose{errnoOnly{e}} }},
	OpNumCommit: {name: "COMMIT",
		op: func() Op { return &OpCommit{} }, res: func(e fserr.Errno) Result { return &ResCommit{errnoOnly{e}} }},
	OpNumCreate: {name: "CREATE", needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpCreate{} }, res: func(e fserr.Errno) Result { return &ResCreate{fhAttr{Errno: e}} }},
	OpNumGetAttr: {name: "GETATTR", idempotent: true, needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpGetAttr{} }, res: func(e fserr.Errno) Result { return &ResGetAttr{Errno: e} }},
	OpNumLookup: {name: "LOOKUP", idempotent: true, needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpLookup{} }, res: func(e fserr.Errno) Result { return &ResLookup{fhAttr{Errno: e}} }},
	OpNumOpen: {name: "OPEN", needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpOpen{} }, res: func(e fserr.Errno) Result { return &ResOpen{fhAttr: fhAttr{Errno: e}} }},
	OpNumPutFH: {name: "PUTFH", idempotent: true,
		op: func() Op { return &OpPutFH{} }, res: func(e fserr.Errno) Result { return &ResPutFH{errnoOnly{e}} }},
	OpNumPutRootFH: {name: "PUTROOTFH", idempotent: true, needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpPutRootFH{} }, res: func(e fserr.Errno) Result { return &ResPutRootFH{errnoOnly{e}} }},
	OpNumRead: {name: "READ", idempotent: true,
		op: func() Op { return &OpRead{} }, res: func(e fserr.Errno) Result { return &ResRead{Errno: e} }},
	OpNumReadDir: {name: "READDIR", idempotent: true, needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpReadDir{} }, res: func(e fserr.Errno) Result { return &ResReadDir{Errno: e} }},
	OpNumRemove: {name: "REMOVE", needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpRemove{} }, res: func(e fserr.Errno) Result { return &ResRemove{errnoOnly{e}} }},
	OpNumRename: {name: "RENAME", needs: roleNamespace, absent: fserr.Inval,
		op: func() Op { return &OpRename{} }, res: func(e fserr.Errno) Result { return &ResRename{errnoOnly{e}} }},
	OpNumWrite: {name: "WRITE",
		op: func() Op { return &OpWrite{} }, res: func(e fserr.Errno) Result { return &ResWrite{Errno: e} }},
	OpNumExchangeID: {name: "EXCHANGE_ID",
		op: func() Op { return &OpExchangeID{} }, res: func(e fserr.Errno) Result { return &ResExchangeID{Errno: e} }},
	OpNumCreateSession: {name: "CREATE_SESSION",
		op: func() Op { return &OpCreateSession{} }, res: func(e fserr.Errno) Result { return &ResCreateSession{Errno: e} }},
	// IO, not Inval: what the "no pNFS" error of a layout-less backend has
	// always mapped to on the wire.
	OpNumLayoutCommit: {name: "LAYOUTCOMMIT", needs: roleLayouts, absent: fserr.IO,
		op: func() Op { return &OpLayoutCommit{} }, res: func(e fserr.Errno) Result { return &ResLayoutCommit{errnoOnly{e}} }},
	OpNumLayoutGet: {name: "LAYOUTGET", idempotent: true, needs: roleLayouts, absent: fserr.Inval,
		op: func() Op { return &OpLayoutGet{} }, res: func(e fserr.Errno) Result { return &ResLayoutGet{Errno: e} }},
	OpNumLayoutReturn: {name: "LAYOUTRETURN",
		op: func() Op { return &OpLayoutReturn{} }, res: func(e fserr.Errno) Result { return &ResLayoutReturn{errnoOnly{e}} }},
	OpNumGetDevList: {name: "GETDEVICELIST", idempotent: true, needs: roleLayouts, absent: fserr.Inval,
		op: func() Op { return &OpGetDevList{} }, res: func(e fserr.Errno) Result { return &ResGetDevList{Errno: e} }},
}

// known reports whether num is an operation this package declares.
func known(num uint32) bool { return num < uint32(len(opTable)) && opTable[num].op != nil }

// opName renders the RFC 5661 operation name, the metric label of both the
// client's and the server's per-op instruments.
func opName(num uint32) string {
	if known(num) {
		return opTable[num].name
	}
	return fmt.Sprintf("OP_%d", num)
}

// MarshalXDR implements xdr.Marshaler.
func (c *CompoundArgs) MarshalXDR(e *xdr.Encoder) {
	e.String(c.Tag)
	e.Uint64(c.Session)
	e.Uint32(c.Slot)
	e.Uint32(c.Seq)
	e.Uint32(uint32(len(c.Ops)))
	for _, op := range c.Ops {
		e.Uint32(op.Num())
		op.MarshalXDR(e)
	}
}

// UnmarshalXDR implements xdr.Unmarshaler.
func (c *CompoundArgs) UnmarshalXDR(d *xdr.Decoder) error {
	var err error
	if c.Tag, err = d.String(); err != nil {
		return err
	}
	if c.Session, err = d.Uint64(); err != nil {
		return err
	}
	if c.Slot, err = d.Uint32(); err != nil {
		return err
	}
	if c.Seq, err = d.Uint32(); err != nil {
		return err
	}
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 1024 {
		return xdr.ErrTooLong
	}
	c.Ops = make([]Op, n)
	for i := range c.Ops {
		num, err := d.Uint32()
		if err != nil {
			return err
		}
		if !known(num) {
			return fmt.Errorf("nfs: unknown operation %d", num)
		}
		c.Ops[i] = opTable[num].op()
		if err := c.Ops[i].UnmarshalXDR(d); err != nil {
			return err
		}
	}
	return nil
}

// WireSize sums per-op wire sizes without materializing bulk payloads.
func (c *CompoundArgs) WireSize() int64 {
	size := int64(xdr.SizeString(c.Tag)) + xdr.SizeUint64 + 3*xdr.SizeUint32
	for _, op := range c.Ops {
		size += xdr.SizeUint32 + rpc.WireSizeOf(op)
	}
	return size
}

// MarshalXDR implements xdr.Marshaler.
func (c *CompoundRep) MarshalXDR(e *xdr.Encoder) {
	e.Uint32(uint32(c.Status))
	e.Uint32(uint32(len(c.Results)))
	for _, r := range c.Results {
		e.Uint32(r.Num())
		r.MarshalXDR(e)
	}
}

// UnmarshalXDR implements xdr.Unmarshaler.
func (c *CompoundRep) UnmarshalXDR(d *xdr.Decoder) error {
	v, err := d.Uint32()
	if err != nil {
		return err
	}
	c.Status = fserr.Errno(v)
	n, err := d.Uint32()
	if err != nil {
		return err
	}
	if n > 1024 {
		return xdr.ErrTooLong
	}
	c.Results = make([]Result, n)
	for i := range c.Results {
		num, err := d.Uint32()
		if err != nil {
			return err
		}
		if !known(num) {
			return fmt.Errorf("nfs: unknown result %d", num)
		}
		c.Results[i] = opTable[num].res(fserr.OK)
		if err := c.Results[i].UnmarshalXDR(d); err != nil {
			return err
		}
	}
	return nil
}

// WireSize sums per-result wire sizes without materializing bulk payloads.
func (c *CompoundRep) WireSize() int64 {
	size := int64(2 * xdr.SizeUint32)
	for _, r := range c.Results {
		size += xdr.SizeUint32 + rpc.WireSizeOf(r)
	}
	return size
}

// Registry returns the rpc request registry for the NFS service (TCP mode).
func Registry() *rpc.Registry {
	reg := rpc.NewRegistry()
	reg.Register(ProcCompound, func() xdr.Unmarshaler { return &CompoundArgs{} })
	return reg
}
